"""Snapshot coverage: all ``ClusterScheduler`` state survives snapshot → restore.

After a short churn run in each mode × aggregation, every ``_``-prefixed
attribute of the live scheduler must be either captured by a
:class:`~repro.scheduler.service.SchedulerSnapshot` field or declared soft
state, and a :meth:`~repro.scheduler.ClusterScheduler.restore` on a fresh
instance must reproduce every captured attribute by value.  The policy
session is compared by its logical content (see ``checkpoints.py``): per
program its rows, bounds, objective and HiGHS call journal.  State added to
the scheduler without extending the snapshot is the bug class that silently
breaks restore determinism.
"""

import dataclasses

import pytest

from repro.cluster import ClusterSpec
from repro.core import make_policy
from repro.scheduler import ClusterScheduler, SchedulerConfig
from repro.scheduler.service import SchedulerSnapshot
from repro.workloads import ThroughputOracle, TraceGenerator

from checkpoints import session_content
from live_rows import records, rows

#: Soft state: run-scoped collaborators that ``restore()`` rebuilds from the
#: snapshot's policy/oracle/config rather than copying, and the pin the next
#: solve clones the session into (a snapshot's own business).
SOFT_STATE = frozenset(
    {
        "_oracle", "_colocation", "_config", "_workers_per_server", "_topology",
        "_placer", "_round_scheduler", "_engine", "_pending_ids",
        "_cancelled_pending", "_members", "_rate_table", "_pin",
    }
)
#: State captured under a different snapshot field name.
CAPTURED_AS = {
    "_clock": "time",
    "_rng": "rng_state",
    "_tracker": "tracker_allocation",
    "_session": "session",
    "_session_solves": "session",
}

_SNAPSHOT_FIELDS = frozenset(field.name for field in dataclasses.fields(SchedulerSnapshot))


def _churned(mode, aggregation):
    """A scheduler mid-run: cancels, a resize, a swap and queued events behind it."""
    oracle = ThroughputOracle()
    scheduler = ClusterScheduler(
        make_policy("max_min_fairness"),
        ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2}),
        oracle=oracle,
        config=SchedulerConfig(mode=mode, aggregation=aggregation),
    )
    trace = TraceGenerator(oracle).generate_continuous(num_jobs=10, jobs_per_hour=6.0, seed=5)
    late = [
        dataclasses.replace(trace.jobs[0], job_id=len(trace.jobs) + i, arrival_time=2.0e6 + i)
        for i in range(2)
    ]
    for job in (*trace.jobs, *late):
        scheduler.submit(job)
    scheduler.run_until(15_000.0)
    scheduler.cancel(scheduler.status().active_job_ids[0])
    scheduler.cancel(late[1].job_id)  # queued behind late[0]: its heap entry stays
    scheduler.resize({"v100": 1})
    scheduler.swap_policy("max_total_throughput")
    scheduler.schedule_resize({"k80": 1}, at=1.0e6)
    for _ in range(3):
        scheduler.step()
    return scheduler


def _view(scheduler, name):
    """An attribute as a value comparable across instances."""
    value = getattr(scheduler, name)
    if name == "_clock":
        return value.now()
    if name == "_rng":
        return value.bit_generator.state
    if name == "_tracker":
        return None if value is None else (value.allocation, value.snapshot_state().tolist())
    if name == "_pending":  # a heap with lazily cancelled entries
        cancelled = scheduler._cancelled_pending
        return sorted(entry for entry in value if entry[2].job_id not in cancelled)
    if name == "_event_heap":
        return sorted(value)
    if name == "_session":
        return session_content(value)
    if name == "_active":  # every column of every row, and the rows' id order
        return rows(scheduler), value.sorted_ids.tolist(), value.position.tolist()
    if name == "_records":  # a live job's record is written from its row when read
        return records(scheduler)
    return value


@pytest.mark.parametrize("aggregation", ["job", "type"])
@pytest.mark.parametrize("mode", ["round", "ideal", "physical", "continuous"])
def test_snapshot_restores_every_attribute(mode, aggregation):
    scheduler = _churned(mode, aggregation)
    state = [name for name in vars(scheduler) if name.startswith("_")]

    uncovered = [
        name
        for name in state
        if name not in SOFT_STATE
        and name.removeprefix("_") not in _SNAPSHOT_FIELDS
        and CAPTURED_AS.get(name) not in _SNAPSHOT_FIELDS
    ]
    assert not uncovered, f"scheduler state neither snapshotted nor soft: {uncovered}"
    assert SOFT_STATE <= set(state), f"stale soft state: {sorted(SOFT_STATE - set(state))}"

    restored = ClusterScheduler(
        make_policy("max_min_fairness"),
        scheduler.cluster_spec,
        oracle=scheduler._oracle,
        config=scheduler._config,
    ).restore(scheduler.snapshot())
    for name in state:
        if name not in SOFT_STATE:
            assert _view(restored, name) == _view(scheduler, name), name
