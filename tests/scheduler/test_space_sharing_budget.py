"""Space sharing pays once per type pair and only for the rows that carry time.

Three counts:

* the allocation engine evaluates a type pair it meets for the first time
  with one ``colocated_throughputs`` call per accelerator (its
  ``PairThroughputCache`` miss), for the true model and for an estimator;
* over a contended continuous-mode ``max_min_fairness+ss`` drain with a
  cancel, the executor's rate table evaluates a type pair once (one
  ``pair_throughputs`` call fills both members' keys, and a pair member's
  consolidated and packed rates are the same numbers);
* and a fluid step reads no ``Allocation.demand``: it bills the rows with
  time from the active jobs' scale factors, not by a Python pass over every
  row.
"""

import pytest

from repro.cluster import ClusterSpec
from repro.core import AllocationEngine
from repro.core.allocation import Allocation
from repro.estimator import ThroughputEstimator
from repro.scheduler import ClusterScheduler, SchedulerConfig
from repro.scheduler import service
from repro.workloads import ColocationModel, Job, ThroughputOracle

_ORACLE = ThroughputOracle()
_NAMES = tuple(_ORACLE.registry.names)
_TYPES = ("resnet18-bs32", "lstm-bs5", "a3c-bs4", "transformer-bs64", "cyclegan-bs1")


def _jobs(count):
    """``count`` jobs a minute apart; every seventh asks for two workers, so only runs alone."""
    return [
        Job(
            job_id=job_id,
            job_type=_TYPES[job_id % len(_TYPES)],
            total_steps=20_000.0 + 700.0 * job_id,
            arrival_time=60.0 * job_id,
            scale_factor=2 if job_id % 7 == 6 else 1,
        )
        for job_id in range(count)
    ]


def _counting(cls):
    class Counting(cls):
        calls = 0

        def colocated_throughputs(self, *args, **kwargs):
            type(self).calls += 1
            return super().colocated_throughputs(*args, **kwargs)

    return Counting


@pytest.mark.parametrize("kind", ["true model", "estimator"])
def test_engine_evaluates_each_new_type_pair_once_per_accelerator(kind):
    model = _counting(ColocationModel)(_ORACLE)
    if kind == "estimator":
        model = _counting(ThroughputEstimator)(ColocationModel(_ORACLE), seed=1)
    engine = AllocationEngine(_ORACLE, space_sharing=True, colocation_model=model)
    jobs = _jobs(24)
    for job in jobs:
        engine.add_job(job)
        engine.matrix()
    for job in jobs[::3]:
        engine.remove_job(job.job_id)
        engine.matrix()
    cache = engine.colocation_cache
    assert cache.misses == len({tuple(sorted(pair)) for pair in _single_worker_type_pairs(jobs)})
    assert type(model).calls == len(_NAMES) * cache.misses


def _single_worker_type_pairs(jobs):
    types = sorted({job.job_type for job in jobs if job.scale_factor == 1})
    return [(a, b) for index, a in enumerate(types) for b in types[index:]]


@pytest.fixture
def continuous_run(monkeypatch):
    """A churning continuous +ss drain, counting rate evaluations and demand reads."""
    seen = {"pair evaluations": 0, "pair member evaluations": 0, "singleton evaluations": 0,
            "demand reads": 0}
    member_throughputs, demand = service.member_throughputs, Allocation.demand
    pair_throughputs = service.pair_throughputs

    def counting_member_throughputs(model, job_type, partner, *args, **kwargs):
        seen["pair member evaluations" if partner is not None else "singleton evaluations"] += 1
        return member_throughputs(model, job_type, partner, *args, **kwargs)

    def counting_pair_throughputs(*args, **kwargs):
        seen["pair evaluations"] += 1
        return pair_throughputs(*args, **kwargs)

    def counting_demand(allocation):
        seen["demand reads"] += 1
        return demand.fget(allocation)

    monkeypatch.setattr(service, "member_throughputs", counting_member_throughputs)
    monkeypatch.setattr(service, "pair_throughputs", counting_pair_throughputs)
    monkeypatch.setattr(Allocation, "demand", property(counting_demand))
    scheduler = ClusterScheduler(
        "max_min_fairness+ss",
        ClusterSpec.from_counts({"v100": 2, "p100": 1, "k80": 1}, registry=_ORACLE.registry),
        oracle=_ORACLE,
        config=SchedulerConfig(mode="continuous"),
    )
    for job in _jobs(18):
        scheduler.submit(job)
    scheduler.schedule_cancel(4, at=3_000.0)
    steps = 0
    while scheduler.step():
        steps += 1
    return scheduler, seen, steps


def test_rate_table_evaluates_each_pair_key_once(continuous_run):
    scheduler, seen, _ = continuous_run
    keys = list(scheduler._rate_table)
    pair_keys = [key for key in keys if key[1] is not None]
    assert pair_keys, "the run must execute pair rows"
    # One evaluation per unordered type pair fills both members' keys.
    type_pairs = {tuple(sorted((job_type, partner))) for job_type, partner, _ in pair_keys}
    assert len(type_pairs) < len(pair_keys)
    assert seen["pair evaluations"] == len(type_pairs)
    assert seen["pair member evaluations"] == 0
    # A singleton key is evaluated per placement (consolidated and packed).
    assert seen["singleton evaluations"] == 2 * (len(keys) - len(pair_keys))


def test_fluid_steps_read_no_allocation_demand(continuous_run):
    scheduler, seen, steps = continuous_run
    assert steps > 10 and len(scheduler.status().completed_job_ids) == 17
    assert seen["demand reads"] == 0
