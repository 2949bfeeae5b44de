"""Snapshots and results share the records of jobs that have left.

``ClusterScheduler`` writes a job's :class:`~repro.scheduler.metrics.JobRecord`
only while the job is pending or active; once it completes or is cancelled the
record is final.  ``snapshot()``, ``restore()`` and ``result()`` therefore copy
the live jobs' records and share the rest.  These tests pin the invariant that
makes the sharing safe, the isolation it must keep under every write path, and
its cost: snapshot memory grows with the live jobs, not with the run.  A
snapshot's policy-session checkpoint is compared by its logical content (see
``checkpoints.py``), since the scheduler swaps the live session it pins for a
clone at its next solve.
"""

import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.core import make_policy
from repro.exceptions import SchedulingError
from repro.scheduler import ClusterScheduler, SchedulerConfig
from repro.workloads import Job, ThroughputOracle, TraceGenerator

from checkpoints import checkpoint_content

SPEC = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})


@pytest.fixture(scope="module")
def oracle():
    return ThroughputOracle()


def _scheduler(oracle, mode="round", aggregation="job", spec=SPEC):
    return ClusterScheduler(
        make_policy("max_min_fairness"),
        spec,
        oracle=oracle,
        config=SchedulerConfig(mode=mode, aggregation=aggregation),
    )


def _job(job_id, total_steps, arrival_time=0.0):
    return Job(
        job_id=job_id, job_type="resnet18-bs64", total_steps=total_steps, arrival_time=arrival_time
    )


def _assert_same(actual, expected, path="snapshot", seen=None):
    """Structural equality, down through containers, arrays and object attributes."""
    seen = set() if seen is None else seen
    if (id(actual), id(expected)) in seen:
        return
    seen.add((id(actual), id(expected)))
    assert type(actual) is type(expected), path
    if isinstance(actual, np.ndarray):
        assert actual.dtype == expected.dtype and np.array_equal(actual, expected), path
    elif isinstance(actual, dict):
        assert list(actual) == list(expected), path
        for key in actual:
            _assert_same(actual[key], expected[key], f"{path}[{key!r}]", seen)
    elif isinstance(actual, (list, tuple)):
        assert len(actual) == len(expected), path
        for index, (left, right) in enumerate(zip(actual, expected)):
            _assert_same(left, right, f"{path}[{index}]", seen)
    elif isinstance(actual, float):
        assert actual == expected or (math.isnan(actual) and math.isnan(expected)), path
    elif hasattr(actual, "__dict__") or hasattr(actual, "__slots__"):
        names = list(vars(actual)) if hasattr(actual, "__dict__") else []
        for cls in type(actual).__mro__:
            names += [name for name in getattr(cls, "__slots__", ()) if hasattr(actual, name)]
        for name in names:
            _assert_same(getattr(actual, name), getattr(expected, name), f"{path}.{name}", seen)
    else:
        assert actual == expected, path


def test_mid_run_result_is_a_point_in_time_view(oracle):
    """A result taken mid-run does not follow the scheduler as it runs on."""
    scheduler = _scheduler(oracle, spec=ClusterSpec.from_counts({"v100": 1, "p100": 1, "k80": 1}))
    for job_id in range(3):
        scheduler.submit(_job(job_id, 200_000.0))
    scheduler.run_until(3600.0)
    result = scheduler.result()
    assert sorted(result.records) == [0, 1, 2]
    steps = {job_id: record.steps_done for job_id, record in result.records.items()}
    assert not result.records[0].completed and 0 < steps[0] < 200_000.0

    scheduler.submit(_job(3, 200_000.0, arrival_time=scheduler.now))
    scheduler.run_until()

    assert sorted(result.records) == [0, 1, 2]
    assert {job_id: record.steps_done for job_id, record in result.records.items()} == steps
    assert not any(record.completed for record in result.records.values())
    assert result.end_time == 3600.0
    assert scheduler.result().records[0].completed


def _left(scheduler):
    status = scheduler.status()
    return set(status.completed_job_ids) | set(status.cancelled_job_ids)


@pytest.mark.parametrize("mode", ["round", "ideal", "physical", "continuous"])
def test_a_record_is_never_written_after_its_job_leaves(oracle, mode):
    """The invariant the sharing rests on, through cancels, resizes and swaps."""
    scheduler = _scheduler(oracle, mode)
    trace = TraceGenerator(oracle).generate_continuous(num_jobs=10, jobs_per_hour=6.0, seed=5)
    for job in trace.jobs:
        scheduler.submit(job)
    scheduler.submit(_job(10, 1e6, arrival_time=1.0e5))
    scheduler.schedule_swap_policy("max_total_throughput", at=30_000.0)
    scheduler.schedule_resize({"v100": -1}, at=40_000.0)
    frozen, more = {}, True
    while more:
        more = scheduler.step()
        if scheduler.now > 15_000.0 and not scheduler.status().cancelled_job_ids:
            scheduler.cancel(scheduler.status().active_job_ids[0])
            scheduler.cancel(10)  # still pending
        records = scheduler.result().records
        for job_id in _left(scheduler) - set(frozen):
            frozen[job_id] = copy.deepcopy(records[job_id])
            with pytest.raises(SchedulingError):
                scheduler.cancel(job_id)
            scheduler.schedule_cancel(job_id, at=scheduler.now + 1000.0)  # skipped when it fires
        for job_id, record in frozen.items():
            assert records[job_id] == record, job_id
    assert len(frozen) == 11


@pytest.mark.parametrize("aggregation", ["job", "type"])
@pytest.mark.parametrize("mode", ["round", "continuous"])
def test_snapshot_is_isolated_under_every_write_path(oracle, mode, aggregation):
    """Nothing done after a snapshot reaches it; it shares exactly the finished records."""
    def fresh():
        return _scheduler(oracle, mode, aggregation)

    scheduler = fresh()
    trace = TraceGenerator(oracle).generate_continuous(num_jobs=10, jobs_per_hour=6.0, seed=5)
    late = [_job(10 + k, 1e6, arrival_time=1.0e6 + k) for k in range(3)]
    for job in (*trace.jobs, *late):
        scheduler.submit(job)
    scheduler.run_until(20_000.0)
    scheduler.cancel(scheduler.status().active_job_ids[0])
    scheduler.cancel(late[0].job_id)
    scheduler.run_until(25_000.0)

    snapshot = scheduler.snapshot()
    content = checkpoint_content(snapshot)
    assert content[0] > 0 and content[1] is not None

    def logical(snapshot):
        """Everything but the session checkpoint, which ``content`` stands for."""
        return dataclasses.replace(snapshot, session=None)

    frozen = copy.deepcopy(logical(snapshot))
    status = scheduler.status()
    left, live = _left(scheduler), set(status.active_job_ids) | set(status.pending_job_ids)
    assert status.completed_job_ids and status.cancelled_job_ids
    assert status.active_job_ids and status.pending_job_ids
    assert sorted(snapshot.records) == sorted(left | live)

    def assert_shares_finished(records):
        for job_id in left:
            assert records[job_id] is snapshot.records[job_id], job_id
        for job_id in live:
            assert records[job_id] is not snapshot.records[job_id], job_id

    assert_shares_finished(scheduler.result().records)

    # Every write path after the snapshot: cancel a pending job, complete the active ones.
    scheduler.cancel(late[1].job_id)
    scheduler.run_until()
    assert set(status.active_job_ids) <= set(scheduler.status().completed_job_ids)
    # The live session went on from the pinned one: its journals extend the pinned ones.
    programs = zip(snapshot.session.state.programs(), scheduler._session.programs())
    for pinned_program, live_program in programs:
        kept, grown = pinned_program._backend._journal, live_program._backend._journal
        assert len(grown) > len(kept) and all(a is b for a, b in zip(kept, grown))
    # Roll back and run again.
    scheduler.restore(snapshot)
    assert_shares_finished(scheduler.result().records)
    scheduler.run_until()
    # Resume the same snapshot twice on fresh schedulers.
    for _ in range(2):
        twin = fresh().restore(snapshot)
        assert_shares_finished(twin.result().records)
        twin.run_until()
        assert twin.result().average_jct_hours() == scheduler.result().average_jct_hours()

    _assert_same(logical(snapshot), frozen)
    assert checkpoint_content(snapshot) == content


def _with_finished(oracle, finished):
    """``finished`` short jobs run to completion, then the same three active and two pending."""
    scheduler = _scheduler(oracle)
    for job_id in range(finished):
        scheduler.submit(_job(job_id, 100.0))
    scheduler.run_until()
    for k in range(5):
        arrival = scheduler.now + (0.0 if k < 3 else 1.0e6)
        scheduler.submit(_job(finished + k, 1e7, arrival_time=arrival))
    scheduler.step()
    scheduler.step()
    status = scheduler.status()
    assert (len(status.active_job_ids), len(status.pending_job_ids)) == (3, 2)
    assert len(status.completed_job_ids) == finished
    return scheduler


def _snapshot_bytes(scheduler):
    """Bytes allocated by one ``snapshot()`` call (its peak over the call)."""
    scheduler.snapshot()  # warm: first-call caches are not the snapshot's cost
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        scheduler.snapshot()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before


def test_snapshot_memory_does_not_grow_with_finished_jobs(oracle):
    """Per finished job a snapshot holds one dict entry, not a record copy (~370 B)."""
    few, many = _with_finished(oracle, 20), _with_finished(oracle, 200)
    per_job = (_snapshot_bytes(many) - _snapshot_bytes(few)) / 180
    assert per_job < 64, f"{per_job:.0f} B per finished job"

