"""The policy-session checkpoint: what ``snapshot()`` pins and ``restore()`` rebuilds.

A snapshot pins the live policy session; the scheduler's next solve first
replaces the pin with a clone without HiGHS models.  ``restore()`` clones the
pinned session onto the restoring scheduler's policy and rebuilds each
program's HiGHS model by replaying the calls that model received (its
journal).  These tests pin that a restored model equals the live one it
copies — LP arrays, basis, solution, the calls it received (counts and
digest) — for every session family, that a restore solves no LP, that
restored runs finish record for record like the uninterrupted run
(rollbacks, chained restores, repeated restores, a failed solve before or
after the snapshot), what the journal costs per solve, and that restored
Gandiva runs draw their packings from a generator of their own.
"""

import dataclasses
import gc
import tracemalloc

import pytest

from repro.cluster import ClusterSpec
from repro.exceptions import ConfigurationError
from repro.scheduler import ClusterScheduler, SchedulerConfig
from repro.solver.lp import LinearProgram
from repro.workloads import Job, ThroughputOracle, TraceGenerator
from repro.workloads.job_table import JobTypeTable, default_job_type_table

from checkpoints import model_states, session_content

from tests.outcomes import recording_highs

SPEC = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})
MODES = ["round", "physical", "continuous", "ideal"]

@pytest.fixture(scope="module")
def oracle():
    return ThroughputOracle()


@pytest.fixture
def recorded_calls():
    """Count and digest, per HiGHS model, every call it receives (``tests/outcomes.py``)."""
    with recording_highs() as models:
        yield models


def _calls(session):
    """Per program of ``session``, the calls its live model has received: counts and digest."""
    if session is None:
        return []
    return [
        None if program._backend is None else program._backend._highs.entry()
        for program in session.programs()
    ]


def _session_state(scheduler):
    """What a restore must reproduce of ``scheduler``'s session: content, models, calls."""
    session = scheduler._session
    return session_content(session), model_states(session), _calls(session)


@pytest.fixture
def lp_solves(monkeypatch):
    """A counter of ``LinearProgram.solve`` calls (``lp_solves[0]``)."""
    count = [0]
    solve = LinearProgram.solve

    def counting(program, *args, **kwargs):
        count[0] += 1
        return solve(program, *args, **kwargs)

    monkeypatch.setattr(LinearProgram, "solve", counting)
    return count


#: (policy, mode, aggregation): LAS in every mode × aggregation × ±ss, then
#: each other session family (water filling through hierarchical, the two
#: minimum-scalar sessions, min cost's Dinkelbach program, a RebuildSession
#: baseline) in a round and a fluid mode, per job and, where supported, per type.
_CASES = [
    (f"max_min_fairness{suffix}", mode, aggregation)
    for suffix in ("", "+ss")
    for aggregation in ("job", "type")
    for mode in MODES
] + [
    (policy, mode, aggregation)
    for policy, aggregations in (
        ("hierarchical", ("job", "type")),
        ("finish_time_fairness", ("job",)),
        ("makespan", ("job",)),
        ("min_cost", ("job", "type")),
        ("allox", ("job",)),
    )
    for aggregation in aggregations
    for mode in ("round", "continuous")
]


@pytest.mark.parametrize("policy, mode, aggregation", _CASES)
def test_restored_models_equal_the_live_ones_and_twins_finish_like_the_run(
    oracle, recorded_calls, lp_solves, policy, mode, aggregation
):
    """At three steps of a churn trace (a cancel, two resizes, a swap; LAS: re-solve ticks).

    Each snapshot is restored twice: at once, while the snapshot still pins
    the live session, and after the run, from the clone the next solve made.
    Both restored sessions hold what the live one held at the snapshot —
    content, model state, the calls each model received — without one LP
    solve, and both twins finish record for record like the run.
    """
    config = SchedulerConfig(
        mode=mode,
        aggregation=aggregation,
        resolve_interval_seconds=(
            1800.0 if mode == "continuous" and policy.startswith("max_min") else None
        ),
    )

    def fresh():
        return ClusterScheduler(policy, SPEC, oracle=oracle, config=config)

    def loaded():
        scheduler = fresh()
        trace = TraceGenerator(oracle).generate_continuous(num_jobs=10, jobs_per_hour=6.0, seed=5)
        for job in trace.jobs:
            scheduler.submit(job)
        scheduler.schedule_cancel(trace.jobs[3].job_id, at=9_000.0)
        scheduler.schedule_resize({"v100": +1}, at=12_000.0)
        scheduler.schedule_swap_policy(policy, at=30_000.0)
        scheduler.schedule_resize({"k80": -1}, at=36_000.0)
        return scheduler

    steps = 1
    probe = loaded()
    while probe.step():
        steps += 1
    splits = (steps // 5, steps // 2, 4 * steps // 5)

    def restored(snapshot):
        before = lp_solves[0]
        twin = fresh().restore(snapshot)
        assert lp_solves[0] == before, "restore() solved an LP"
        return twin

    scheduler, step, checkpoints, twins = loaded(), 0, [], []
    more = True
    while more:
        if step in splits:
            snapshot = scheduler.snapshot()
            live = _session_state(scheduler)
            twin = restored(snapshot)
            assert _session_state(twin) == live, f"restore at step {step} (session pinned live)"
            checkpoints.append((snapshot, live))
            twins.append(twin)
        more = scheduler.step()
        step += 1
    assert len(checkpoints) == 3
    assert any(content is not None for (_snapshot, (content, _models, _calls)) in checkpoints)

    for snapshot, live in checkpoints:
        twin = restored(snapshot)
        assert _session_state(twin) == live, "restore from the clone the next solve made"
        twins.append(twin)
    expected = scheduler.result()
    for twin in twins:
        twin.run_until()
        assert twin.result().records == expected.records
        assert twin.result().total_cost_dollars == expected.total_cost_dollars


@pytest.mark.parametrize("mode", ["round", "continuous"])
@pytest.mark.parametrize("policy", ["max_min_fairness", "min_cost"])
def test_rollback_chained_and_repeated_restores_finish_like_the_run(oracle, policy, mode):
    """A rollback, one snapshot restored twice, a restore of a restored run's snapshot."""
    config = SchedulerConfig(mode=mode)

    def fresh():
        return ClusterScheduler(policy, SPEC, oracle=oracle, config=config)

    def loaded():
        scheduler = fresh()
        for job in TraceGenerator(oracle).generate_continuous(12, 6.0, seed=7).jobs:
            scheduler.submit(job)
        return scheduler

    def stepped(scheduler, steps):
        for _ in range(steps):
            scheduler.step()
        return scheduler

    steps, probe = 1, loaded()
    while probe.step():
        steps += 1
    scheduler = stepped(loaded(), steps // 3)
    first = scheduler.snapshot()
    scheduler.run_until()
    expected = scheduler.result()

    scheduler.restore(first)  # rollback
    scheduler.run_until()
    assert scheduler.result().records == expected.records

    twins = [fresh().restore(first) for _ in range(2)]  # the same snapshot, twice
    for twin in twins:
        twin.run_until()
        assert twin.result().records == expected.records

    chained = stepped(fresh().restore(first), steps // 3)
    second = chained.snapshot()
    assert len(second.session_history) > len(first.session_history)
    chained.run_until()
    assert chained.result().records == expected.records
    twin = fresh().restore(second)
    twin.run_until()
    assert twin.result().records == expected.records
    assert twin.result().total_cost_dollars == expected.total_cost_dollars


def test_the_journal_retains_a_few_kilobytes_per_solve(oracle):
    """Bytes the call journal keeps per solve, 60 jobs active: about 2.2 KB.

    The solve log it replaced kept 4.4 KB a solve in this scenario (27 KB
    before that, with whole problems and their matrix caches).  ``setBasis``
    entries hold HiGHS' own basis object, one byte per status outside
    ``tracemalloc``'s view: they are counted by their statuses.
    """
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
        (program,) = scheduler._session.programs()
        backend = program._backend
        statuses = sum(
            len(entry[1].col_status) + len(entry[1].row_status)
            for entry in backend._journal
            if entry[0] == "setBasis"
        )
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        backend._journal = []
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    solves = len(scheduler.snapshot().session_history)
    assert len(scheduler.status().active_job_ids) == 60 and solves == 80
    per_solve = (freed + statuses) / solves
    assert per_solve < 4_000, f"{per_solve:.0f} B of journal per solve"


def _dead_oracle():
    """An oracle with one job type no accelerator of ``{v100: 2, p100: 2}`` can run."""
    table = list(default_job_type_table())
    dead = dataclasses.replace(
        table[0], batch_size=table[0].batch_size + 1000, speedups={"v100": 0.0, "p100": 0.0}
    )
    return ThroughputOracle(JobTypeTable(table + [dead])), dead.name


@pytest.mark.parametrize("aggregation", ["job", "type"])
@pytest.mark.parametrize("mode", MODES)
def test_a_solve_that_raises_leaves_restore_working(mode, aggregation):
    """A job no cluster type can run fails its solve; cancelled, the run goes on and restores."""
    oracle, dead = _dead_oracle()
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
    scheduler.submit(Job(99, dead, total_steps=1e4, arrival_time=jobs[2].arrival_time + 1))
    with pytest.raises(ConfigurationError, match="zero throughput"):
        scheduler.run_until()
    scheduler.cancel(99)
    scheduler.run_until(scheduler.now + 20_000.0)
    snapshot = scheduler.snapshot()
    # The session started cold after the failure.
    assert 0 < len(snapshot.session_history) < scheduler.result().num_policy_recomputations
    scheduler.run_until()
    twin = fresh().restore(snapshot)
    twin.run_until()
    assert twin.result().records == scheduler.result().records
    assert twin.result().total_cost_dollars == scheduler.result().total_cost_dollars
    assert len(scheduler.status().completed_job_ids) == len(jobs)


@pytest.mark.parametrize("aggregation", ["job", "type"])
@pytest.mark.parametrize("mode", ["round", "continuous"])
def test_a_snapshot_followed_by_a_solve_that_raises_still_restores(mode, aggregation):
    """The failing solve clones the pinned session first, so the snapshot keeps it intact.

    Restored, with the job that cannot run cancelled, the twin finishes like
    a run that cancelled it at the same instant without ever failing.
    """
    oracle, dead = _dead_oracle()
    config = SchedulerConfig(mode=mode, aggregation=aggregation)

    def loaded():
        scheduler = ClusterScheduler(
            "max_min_fairness",
            ClusterSpec.from_counts({"v100": 2, "p100": 2}),
            oracle=oracle,
            config=config,
        )
        jobs = TraceGenerator(ThroughputOracle()).generate_continuous(8, 6.0, seed=5).jobs
        for job in jobs:
            scheduler.submit(job)
        scheduler.submit(Job(99, dead, total_steps=1e4, arrival_time=jobs[2].arrival_time + 1))
        return scheduler

    scheduler, steps = loaded(), 0
    while True:
        snapshot = scheduler.snapshot()
        try:
            scheduler.step()
        except ConfigurationError:
            break
        steps += 1
    assert len(snapshot.session_history) > 0

    reference = loaded()
    for _ in range(steps):
        reference.step()
    reference.cancel(99)
    reference.run_until()

    twin = ClusterScheduler(
        "max_min_fairness", ClusterSpec.from_counts({"v100": 2, "p100": 2}),
        oracle=oracle, config=config,
    ).restore(snapshot)
    twin.cancel(99)
    twin.run_until()
    assert twin.result().records == reference.result().records
    assert twin.result().total_cost_dollars == reference.result().total_cost_dollars


@pytest.mark.parametrize("mode", ["round", "continuous"])
@pytest.mark.parametrize("probe", ["chained", "rollback", "twice"])
def test_restored_gandiva_runs_draw_their_own_packings(oracle, probe, mode):
    """Gandiva's packing generator lives in the policy: each restore gets its own copy.

    Shared, every packing of the run that took the snapshot, or of another
    scheduler restored from it, advanced the generator of them all.
    """
    config = SchedulerConfig(mode=mode)

    def fresh():
        return ClusterScheduler("gandiva", SPEC, oracle=oracle, config=config)

    jobs = TraceGenerator(oracle).generate_continuous(14, 6.0, seed=3).jobs
    scheduler = fresh()
    for job in jobs:
        scheduler.submit(job)
    scheduler.run_until(15_000.0)
    first = scheduler.snapshot()
    scheduler.run_until(30_000.0)
    second = scheduler.snapshot()
    scheduler.run_until()
    expected = scheduler.result().records

    if probe == "chained":
        chained = fresh().restore(first)
        chained.run_until(30_000.0)
        finished = [fresh().restore(chained.snapshot()), chained]
    elif probe == "rollback":
        finished = [scheduler.restore(second)]
    else:
        finished = [fresh().restore(first), fresh().restore(first)]
    for twin in finished:
        twin.run_until()
        assert twin.result().records == expected
