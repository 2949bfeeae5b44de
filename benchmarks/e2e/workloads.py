"""Workload definitions of the end-to-end benchmark.

Each workload is a seeded trace plus a scheduler configuration, replayed
through the public :class:`~repro.scheduler.service.ClusterScheduler` API.
The four stress different layers on purpose (see ``why`` and the README):
an optimisation of one layer has a workload that exercises it and one that
bypasses it, where the prediction is *no change*.

Seeding.  The job *population* of a workload (job types, step counts,
nominal arrival instants) is fixed — drawn once by ``TraceGenerator.generate_continuous``
with :data:`POPULATION_SEED` — and ``--seed`` moves every arrival instant by up
to :data:`ARRIVAL_JITTER_SECONDS`.  A run that fits the benchmark's time cap
is a few hundred discrete events over jobs whose durations span 2.5 decades,
which does not average out: redrawing the population per seed moved total
work by ~10 %, the hierarchical workload's re-allocation count by 9 % and its
MILP times by far more, burying any regression bound.  With the population
fixed a seed changes which round an arrival falls in and how events
interleave, and counts and simulated JCT stay within ~1 % across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

import numpy as np

from repro.cluster import ClusterSpec
from repro.scheduler.clock import VirtualClock
from repro.scheduler.service import ClusterScheduler, SchedulerConfig
from repro.workloads import Job, ThroughputOracle, TraceGenerator

#: Seed of the fixed job population (types, step counts) of every workload.
POPULATION_SEED = 7
#: ``--seed`` moves every arrival instant by up to this much, either way.
ARRIVAL_JITTER_SECONDS = 30.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: trace shape plus scheduler configuration."""

    name: str
    why: str
    policy: str
    mode: str
    aggregation: str
    num_jobs: int
    jobs_per_hour: float
    gpus_per_type: int
    #: Scripted cancels, resizes and policy swaps (``churn_tour`` only).
    churn: bool = False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="round_las_type",
            why="paper's round mechanism at 36x3 GPUs with a cheap type-aggregated LP: "
            "Algorithm 1, priorities, placement and accounting dominate, the LP barely shows",
            policy="max_min_fairness",
            mode="round",
            aggregation="type",
            num_jobs=150,
            jobs_per_hour=30.0,
            gpus_per_type=36,
        ),
        Workload(
            name="cont_las_job",
            why="same trace and cluster in continuous mode, per-job LP: every step re-solves, "
            "so session edits and LP solves dominate and round-mechanism work predicts no change",
            policy="max_min_fairness",
            mode="continuous",
            aggregation="job",
            num_jobs=150,
            jobs_per_hour=30.0,
            gpus_per_type=36,
        ),
        Workload(
            name="round_hier_job",
            why="hierarchical water-filling on 12x3 GPUs: many LP solves plus a MILP per "
            "re-allocation, so LP-assembly changes show and a plain round is invisible",
            policy="hierarchical",
            mode="round",
            aggregation="job",
            num_jobs=28,
            jobs_per_hour=10.0,
            gpus_per_type=12,
        ),
        Workload(
            name="churn_tour",
            why="continuous mode with cancels, resizes and policy swaps (space sharing, then "
            "Charnes-Cooper, then bisection): remove/rebuild/restore traffic, not add-and-complete",
            policy="max_min_fairness+ss",
            mode="continuous",
            aggregation="job",
            num_jobs=80,
            jobs_per_hour=10.0,
            gpus_per_type=12,
            churn=True,
        ),
    )
}


def make_jobs(
    workload: Workload, seed: int, scale: float, oracle: ThroughputOracle
) -> List[Job]:
    """The workload's trace: the fixed population, arrival instants jittered by ``seed``."""
    num_jobs = max(8, round(workload.num_jobs * scale))
    population = TraceGenerator(oracle).generate_continuous(
        num_jobs, workload.jobs_per_hour, seed=POPULATION_SEED
    )
    jitter = np.random.default_rng(seed).uniform(
        -ARRIVAL_JITTER_SECONDS, ARRIVAL_JITTER_SECONDS, size=num_jobs
    )
    jobs = [
        replace(job, arrival_time=max(0.0, job.arrival_time + float(shift)))
        for job, shift in zip(population, jitter)
    ]
    return sorted(jobs, key=lambda job: (job.arrival_time, job.job_id))


def make_scheduler(workload: Workload, oracle: ThroughputOracle) -> ClusterScheduler:
    """A fresh scheduler for ``workload`` (also the target of every restore)."""
    cluster = ClusterSpec.from_counts(
        {name: workload.gpus_per_type for name in ("v100", "p100", "k80")},
        registry=oracle.registry,
    )
    config = SchedulerConfig(mode=workload.mode, aggregation=workload.aggregation)
    return ClusterScheduler(
        workload.policy, cluster, oracle=oracle, config=config, clock=VirtualClock()
    )


def submit_all(workload: Workload, scheduler: ClusterScheduler, jobs: List[Job]) -> None:
    """Submit the trace and, for a churn workload, queue its control events.

    The churn script is relative to the trace: every 10th job of the
    population is cancelled 1800 s after it arrives, the cluster grows by 4
    V100s at 25 % and loses 4 K80s at 50 % of the last arrival, and the policy
    is swapped at 60 % (``min_cost``, the Charnes-Cooper family) and 85 %
    (``finish_time_fairness``, the bisection family).  ``min_cost`` comes
    first because it all but parks jobs: as the last policy it would stretch
    the drain to thousands of simulated hours decided by a handful of jobs.
    """
    for job in jobs:
        scheduler.submit(job)
    if not workload.churn:
        return
    last_arrival = jobs[-1].arrival_time
    for job in jobs:
        if job.job_id % 10 == 0:
            scheduler.schedule_cancel(job.job_id, job.arrival_time + 1800.0)
    scheduler.schedule_resize({"v100": +4}, 0.25 * last_arrival)
    scheduler.schedule_resize({"k80": -4}, 0.50 * last_arrival)
    scheduler.schedule_swap_policy("min_cost", 0.60 * last_arrival)
    scheduler.schedule_swap_policy("finish_time_fairness", 0.85 * last_arrival)
