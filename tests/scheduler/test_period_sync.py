"""A round re-allocation's scheduler-side work costs its event, not the live set.

A round-mode LAS scheduler runs with 20 and then 80 active jobs on a cluster
where every job fits each round, per job and type-aggregated.  For one
arrival and for one completion, the step that re-allocates is watched for
two kinds of work: member resolutions (``ClusterScheduler._row_members``,
one per job of a row the member table resolves) and job-index work in the
aggregated view (jobs ``_JobIndex.of`` indexes plus jobs ``_JobIndex.spliced``
takes out or puts in).  The member table keeps a row as long as its jobs,
and the view splices the jobs that came or went into the last index, so the
counts are those of the event's jobs, the same at both sizes.  No
aggregation-supported policy reads the groups' steps left or elapsed times,
so no step reduces them.
"""

import functools

import pytest

from repro.cluster import ClusterSpec
from repro.core import aggregation as type_aggregation
from repro.core.aggregation import _JobIndex
from repro.scheduler import ClusterScheduler, SchedulerConfig
from repro.workloads import Job, ThroughputOracle

#: Single-worker types, so every job fits on the 96 GPUs each round.
_JOB_TYPES = ("resnet50-bs128", "cyclegan-bs1", "a3c-bs4", "transformer-bs256")
_LONG = 1e12  # steps: never finishes while watched


@pytest.fixture(scope="module")
def oracle():
    return ThroughputOracle()


@pytest.fixture
def counts(monkeypatch):
    """Members resolved, jobs indexed and group reductions made, since the last reset."""
    seen = {"members": 0, "indexed": 0, "reductions": 0}
    row_members = ClusterScheduler._row_members
    of, spliced, per_group = _JobIndex.of.__func__, _JobIndex.spliced, type_aggregation._per_group

    @functools.wraps(row_members)
    def counting_row_members(self, *args):
        members = row_members(self, *args)
        seen["members"] += len(members)
        return members

    def counting_of(cls, members, rep_jobs):
        index = of(cls, members, rep_jobs)
        seen["indexed"] += len(index.job_ids)
        return index

    def counting_spliced(self, left, joined, *args):
        left = list(left)
        seen["indexed"] += len(left) + len(joined)
        return spliced(self, left, joined, *args)

    def counting_per_group(*args):
        seen["reductions"] += 1
        return per_group(*args)

    monkeypatch.setattr(ClusterScheduler, "_row_members", counting_row_members)
    monkeypatch.setattr(type_aggregation, "_per_group", counting_per_group)
    monkeypatch.setattr(_JobIndex, "of", classmethod(counting_of))
    monkeypatch.setattr(_JobIndex, "spliced", counting_spliced)
    return seen


def _job(job_id, total_steps, arrival_time=0.0):
    return Job(
        job_id=job_id,
        job_type=_JOB_TYPES[job_id % len(_JOB_TYPES)],
        total_steps=total_steps,
        arrival_time=arrival_time,
    )


def _watched_step(scheduler, counts):
    """One step, which must re-allocate; returns its counts."""
    recomputations = scheduler.status().num_policy_recomputations
    for kind in counts:
        counts[kind] = 0
    scheduler.step()
    assert scheduler.status().num_policy_recomputations == recomputations + 1
    return dict(counts)


def _event_counts(oracle, counts, size, aggregation):
    """Counts of one arrival's and of one completion's re-allocating step at ``size`` jobs."""
    scheduler = ClusterScheduler(
        "max_min_fairness",
        ClusterSpec.from_counts({"v100": 32, "p100": 32, "k80": 32}),
        oracle=oracle,
        config=SchedulerConfig(mode="round", aggregation=aggregation),
    )
    for job_id in range(size):
        scheduler.submit(_job(job_id, _LONG))
    for _ in range(3):
        scheduler.step()
    assert len(scheduler.status().active_job_ids) == size

    scheduler.submit(_job(size, _LONG, arrival_time=scheduler.now))
    arrival = _watched_step(scheduler, counts)
    # A job that finishes inside the round it arrives in; the next step re-allocates.
    scheduler.submit(_job(size + 1, 1.0, arrival_time=scheduler.now))
    scheduler.step()
    assert scheduler.result().records[size + 1].completed
    completion = _watched_step(scheduler, counts)
    return arrival, completion


@pytest.mark.parametrize("aggregation", ["job", "type"])
def test_event_costs_the_same_at_any_size(oracle, counts, aggregation):
    """One arrival: its own member and index entry; one completion: no member, one index entry."""
    small = _event_counts(oracle, counts, 20, aggregation)
    large = _event_counts(oracle, counts, 80, aggregation)
    assert small == large
    arrival, completion = small
    indexed = 1 if aggregation == "type" else 0
    assert arrival == {"members": 1, "indexed": indexed, "reductions": 0}
    assert completion == {"members": 0, "indexed": indexed, "reductions": 0}
