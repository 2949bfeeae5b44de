"""The solve log: what ``restore()`` replays, kept compact.

``ClusterScheduler`` logs every solve of its live policy session so that a
snapshot can rebuild the session by replay.  The newest entry is the solved
problem itself; an older one keeps only the values its problem is rebuilt
from (``SolvedProblem``): the jobs, two float arrays, the time, the cluster
object and an uncached matrix over the same parts.  These tests pin that a
rebuilt problem equals the one solved, that entries sharing a matrix keep
sharing one, what an entry costs, and that a solve which raises leaves no
entry behind for a later restore to trip over.
"""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.exceptions import ConfigurationError
from repro.scheduler import ClusterScheduler, SchedulerConfig
from repro.scheduler.solve_log import SolvedProblem, logged_problems
from repro.workloads import Job, ThroughputOracle, TraceGenerator
from repro.workloads.job_table import JobTypeTable, default_job_type_table

SPEC = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})
MODES = ["round", "physical", "continuous", "ideal"]


@pytest.fixture(scope="module")
def oracle():
    return ThroughputOracle()


def _bits(values):
    return np.asarray(list(values), dtype=float).view(np.uint64).tolist()


def _assert_rebuilt(rebuilt, solved):
    """``rebuilt`` is the problem ``solved``: keys, floats bit for bit, identities, matrix parts."""
    assert list(rebuilt.jobs) == list(solved.jobs)
    assert all(rebuilt.jobs[job_id] is job for job_id, job in solved.jobs.items())
    for name in ("steps_remaining", "time_elapsed"):
        built, original = getattr(rebuilt, name), getattr(solved, name)
        assert list(built) == list(original), name
        assert _bits(built.values()) == _bits(original.values()), name
    assert rebuilt.current_time == solved.current_time
    assert rebuilt.cluster_spec is solved.cluster_spec
    assert rebuilt.group_counts is solved.group_counts is None
    matrix, original = rebuilt.throughputs, solved.throughputs
    assert matrix.registry is original.registry
    assert matrix.job_ids == original.job_ids
    assert matrix._singles is original._singles
    assert matrix._pair_ids == original._pair_ids
    assert matrix._pair_block is original._pair_block
    assert matrix.combinations == original.combinations


def _check_log(scheduler, solved):
    """The log's entries against the problems ``scheduler`` solved; returns the shared pairs."""
    log = scheduler._session_history
    originals = solved[len(solved) - len(log):]
    assert log[-1][0] is originals[-1]
    for (entry, _deltas), original in zip(log[:-1], originals):
        assert isinstance(entry, SolvedProblem)
        assert entry.throughputs is original.throughputs or (
            entry.throughputs._dense_rows is None and entry.throughputs._combinations is None
        )
    rebuilt = [problem for problem, _deltas in logged_problems(log)]
    for problem, original in zip(rebuilt, originals):
        _assert_rebuilt(problem, original)
    shared = 0
    for index in range(len(log) - 1):
        was_shared = originals[index].throughputs is originals[index + 1].throughputs
        shared += was_shared
        assert (log[index][0].throughputs is log[index + 1][0].throughputs) == was_shared
        assert (rebuilt[index].throughputs is rebuilt[index + 1].throughputs) == was_shared
    return shared


@pytest.mark.parametrize("space_sharing", [False, True], ids=["plain", "ss"])
@pytest.mark.parametrize("aggregation", ["job", "type"])
@pytest.mark.parametrize("mode", MODES)
def test_each_entry_rebuilds_the_problem_it_solved(
    oracle, monkeypatch, mode, aggregation, space_sharing
):
    """Through arrivals, completions, a cancel, resizes, a swap and a restore."""
    solved = {}
    build = ClusterScheduler._build_problem

    def recording(self, *args):
        problem = build(self, *args)
        solved.setdefault(id(self), []).append(problem)
        return problem

    monkeypatch.setattr(ClusterScheduler, "_build_problem", recording)
    suffix = "+ss" if space_sharing else ""
    config = SchedulerConfig(
        mode=mode,
        aggregation=aggregation,
        resolve_interval_seconds=1800.0 if mode == "continuous" else None,
    )

    def fresh():
        return ClusterScheduler(f"max_min_fairness{suffix}", SPEC, oracle=oracle, config=config)

    scheduler = fresh()
    trace = TraceGenerator(oracle).generate_continuous(num_jobs=10, jobs_per_hour=6.0, seed=5)
    for job in trace.jobs:
        scheduler.submit(job)
    scheduler.schedule_cancel(trace.jobs[3].job_id, at=9_000.0)
    scheduler.schedule_resize({"v100": +1}, at=12_000.0)
    scheduler.schedule_swap_policy(f"max_total_throughput{suffix}", at=30_000.0)
    scheduler.schedule_resize({"k80": -1}, at=36_000.0)
    shared, steps, snapshot = 0, 0, None
    while scheduler.step():
        steps += 1
        shared += _check_log(scheduler, solved[id(scheduler)])
        if steps == 12:
            snapshot = scheduler.snapshot()
    assert shared > 0, "no two consecutive solves shared a matrix: the sharing went unchecked"

    twin = fresh().restore(snapshot)
    solved[id(twin)] = [problem for problem, _deltas in logged_problems(twin._session_history)]
    while twin.step():
        _check_log(twin, solved[id(twin)])
    assert twin.result().records == scheduler.result().records


def test_an_entry_retains_a_few_kilobytes(oracle):
    """Bytes a superseded solve keeps, 60 jobs active: under 5 KB, against ~27 KB with caches."""
    types = ["resnet18-bs16", "resnet50-bs16", "resnet18-bs32", "resnet50-bs32", "resnet18-bs64"]
    scheduler = ClusterScheduler(
        "max_min_fairness",
        ClusterSpec.from_counts({"v100": 4, "p100": 4, "k80": 4}),
        oracle=oracle,
        config=SchedulerConfig(mode="continuous"),
    )
    for job_id in range(60):
        scheduler.submit(Job(job_id, types[job_id % 5], total_steps=1e9, arrival_time=0.0))
    for k in range(40):  # one short job at a time: each arrival and completion re-solves
        job = Job(60 + k, types[k % 5], total_steps=2000.0, arrival_time=1000.0 * (k + 1))
        scheduler.submit(job)
    tracemalloc.start()
    try:
        scheduler.run_until(41_000.0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        entries = len(scheduler._session_history)
        scheduler._session_history = []
        gc.collect()
        per_entry = (held - tracemalloc.get_traced_memory()[0]) / entries
    finally:
        tracemalloc.stop()
    assert len(scheduler.status().active_job_ids) == 60 and entries == 80
    assert per_entry < 8_000, f"{per_entry:.0f} B per history entry"


@pytest.mark.parametrize("aggregation", ["job", "type"])
@pytest.mark.parametrize("mode", MODES)
def test_a_solve_that_raises_leaves_restore_working(mode, aggregation):
    """A job no cluster type can run fails its solve; cancelled, the run goes on and restores."""
    table = list(default_job_type_table())
    dead = dataclasses.replace(
        table[0], batch_size=table[0].batch_size + 1000, speedups={"v100": 0.0, "p100": 0.0}
    )
    oracle = ThroughputOracle(JobTypeTable(table + [dead]))
    config = SchedulerConfig(mode=mode, aggregation=aggregation)

    def fresh():
        return ClusterScheduler(
            "max_min_fairness",
            ClusterSpec.from_counts({"v100": 2, "p100": 2}),
            oracle=oracle,
            config=config,
        )

    scheduler = fresh()
    jobs = TraceGenerator(ThroughputOracle()).generate_continuous(8, 6.0, seed=5).jobs
    for job in jobs:
        scheduler.submit(job)
    scheduler.submit(Job(99, dead.name, total_steps=1e4, arrival_time=jobs[2].arrival_time + 1))
    with pytest.raises(ConfigurationError, match="zero throughput"):
        scheduler.run_until()
    scheduler.cancel(99)
    scheduler.run_until(scheduler.now + 20_000.0)
    snapshot = scheduler.snapshot()
    assert snapshot.session_history[0][1] is None  # the log restarted cold after the failure
    scheduler.run_until()
    twin = fresh().restore(snapshot)
    twin.run_until()
    assert twin.result().records == scheduler.result().records
    assert twin.result().total_cost_dollars == scheduler.result().total_cost_dollars
    assert len(scheduler.status().completed_job_ids) == len(jobs)

