"""The live-job table: the only store of a live job's state, read where it is read.

``ClusterScheduler._active`` holds every live job's progress and accounting
in columns.  A fluid step computes on them in bulk and writes no per-job
object: between two membership changes it sets no attribute of any live job's
:class:`~repro.scheduler.metrics.JobRecord` and does not rebuild the table's
id order.  A record is made from its row where something reads it — once on
the job's way out, and in ``result()`` / ``snapshot()`` — so those are
point-in-time views that later steps leave alone, and a restore resumes from
the table as it was.
"""

import copy
from dataclasses import replace

import pytest

from repro.cluster import ClusterSpec
from repro.scheduler import ClusterScheduler, SchedulerConfig
from repro.scheduler.metrics import JobRecord
from repro.scheduler.service import _JobTable
from repro.workloads import ThroughputOracle, TraceGenerator

_ORACLE = ThroughputOracle()
_SPEC = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})


def _scheduler(policy, mode, aggregation="job", **config):
    """Twelve jobs arriving over two hours, and one far behind them that waits."""
    scheduler = ClusterScheduler(
        policy, _SPEC, oracle=_ORACLE,
        config=SchedulerConfig(mode=mode, aggregation=aggregation, **config),
    )  # fmt: skip
    jobs = TraceGenerator(_ORACLE).generate_continuous(12, 6.0, seed=5).jobs
    for job in jobs:
        scheduler.submit(job)
    scheduler.submit(replace(jobs[0], job_id=len(jobs), arrival_time=1.0e6))
    return scheduler


#: Steps into a run at which the views are taken: jobs are running, more are to come.
_STEPS = {"continuous": 9, "round": 25}


def _fields(records):
    return {job_id: dict(vars(record)) for job_id, record in records.items()}


#: name -> (policy, mode, aggregation, config): fluid runs with steps between
#: membership changes (re-solve ticks; scheduled resizes for ``ideal_resizes``).
_FLUID = {
    "continuous_ticks": (
        "max_min_fairness", "continuous", "job", {"resolve_interval_seconds": 600.0},
    ),
    "continuous_ss_type": (
        "max_min_fairness+ss", "continuous", "type", {"resolve_interval_seconds": 900.0},
    ),
    "ideal_resizes": ("max_min_fairness", "ideal", "job", {}),
}  # fmt: skip


class TestNoPerJobWritesPerStep:
    """A fluid step between membership changes writes no record and keeps the id order."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Every object a ``JobRecord`` attribute was set on, and every id-order rebuild."""
        seen = {"written": [], "reindexed": 0}
        reindex = _JobTable.reindex

        def counting_reindex(table):
            seen["reindexed"] += 1
            reindex(table)

        def counting_setattr(record, name, value):
            seen["written"].append(record)
            object.__setattr__(record, name, value)

        monkeypatch.setattr(_JobTable, "reindex", counting_reindex)
        monkeypatch.setattr(JobRecord, "__setattr__", counting_setattr)
        return seen

    @pytest.mark.parametrize("name", sorted(_FLUID))
    def test_steps_between_membership_changes(self, counts, name):
        policy, mode, aggregation, config = _FLUID[name]
        scheduler = _scheduler(policy, mode, aggregation, **config)
        if name == "ideal_resizes":
            for hour in range(1, 40):
                scheduler.schedule_resize({"k80": +1 if hour % 2 else -1}, at=hour * 3600.0)
        quiet, more = 0, True
        while more:
            before = list(scheduler._active.ids)
            live = {id(scheduler._records[job_id]) for job_id in before}
            written, reindexed = len(counts["written"]), counts["reindexed"]
            pending = scheduler.status().pending_job_ids
            more = scheduler.step()
            if scheduler._active.ids == before and scheduler.status().pending_job_ids == pending:
                # Nobody came or went.
                quiet += 1
                assert counts["reindexed"] == reindexed
                assert not [r for r in counts["written"][written:] if id(r) in live]
        assert quiet >= 20
        assert all(record.completed for record in scheduler.result().records.values())


#: The point-in-time runs: both executors, both aggregations, with and without space sharing.
_RUNS = [
    (policy, mode, aggregation)
    for policy in ("max_min_fairness", "max_min_fairness+ss")
    for mode in ("continuous", "round")
    for aggregation in ("job", "type")
]


@pytest.mark.parametrize("policy, mode, aggregation", _RUNS)
class TestPointInTimeReads:
    def test_result_and_snapshot_are_the_records_at_their_step(self, policy, mode, aggregation):
        scheduler, twin = (_scheduler(policy, mode, aggregation) for _ in range(2))
        for _ in range(_STEPS[mode]):
            scheduler.step()
            twin.step()
        assert scheduler._active.ids, "the views must be taken with jobs running"
        result, snapshot = scheduler.result(), scheduler.snapshot()
        frozen = _fields(result.records)
        assert frozen == _fields(snapshot.records) == _fields(twin.result().records)
        live = [job_id for job_id in scheduler._active.ids if frozen[job_id]["steps_done"] > 0]
        assert live, "some running job must have made progress"
        scheduler.run_until()
        assert _fields(result.records) == _fields(snapshot.records) == frozen
        # The same jobs went on running and were written when they left.
        final = scheduler.result().records
        assert all(final[job_id].steps_done > frozen[job_id]["steps_done"] for job_id in live)

    def test_a_job_leaving_writes_its_record_once(self, monkeypatch, policy, mode, aggregation):
        made = []
        record = _JobTable.record

        def counting(table, row):
            made.append(table.ids[row])
            return record(table, row)

        monkeypatch.setattr(_JobTable, "record", counting)
        scheduler = _scheduler(policy, mode, aggregation)
        for _ in range(_STEPS[mode]):
            scheduler.step()
        cancelled = scheduler._active.ids[0]
        scheduler.cancel(cancelled)
        pending = scheduler.status().pending_job_ids[-1]
        scheduler.cancel(pending)
        kept = {cancelled: scheduler._records[cancelled]}
        kept_fields = copy.deepcopy(_fields(kept))
        scheduler.run_until()
        records = scheduler.result().records
        assert sorted(made) == sorted(set(records) - {pending})  # once each, never the pending one
        assert records[cancelled].cancelled and records[pending].cancelled
        assert records[cancelled] is kept[cancelled] and _fields(kept) == kept_fields

    def test_restore_drains_like_the_uninterrupted_run(self, policy, mode, aggregation):
        scheduler = _scheduler(policy, mode, aggregation)
        for _ in range(_STEPS[mode]):
            scheduler.step()
        snapshot = scheduler.snapshot()
        scheduler.run_until()
        resumed = ClusterScheduler(
            policy, _SPEC, oracle=_ORACLE,
            config=SchedulerConfig(mode=mode, aggregation=aggregation),
        ).restore(snapshot)  # fmt: skip
        resumed.run_until()
        expected, actual = scheduler.result(), resumed.result()
        assert _fields(actual.records) == _fields(expected.records)
        assert (actual.total_cost_dollars, actual.busy_worker_seconds, actual.end_time) == (
            expected.total_cost_dollars, expected.busy_worker_seconds, expected.end_time,
        )  # fmt: skip
