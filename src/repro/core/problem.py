"""Policy input: everything a scheduling policy needs to compute an allocation."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cluster_spec import ClusterSpec
from repro.core.throughput_matrix import ThroughputMatrix
from repro.exceptions import ConfigurationError, UnknownJobError
from repro.workloads.job import Job

__all__ = ["PolicyProblem"]


@dataclass(frozen=True)
class PolicyProblem:
    """Snapshot of cluster and job state handed to a policy.

    Attributes:
        jobs: Active (runnable) jobs keyed by job id.
        throughputs: Throughput matrix covering exactly the active jobs (and,
            when space sharing is enabled, beneficial pair combinations).
        cluster_spec: Worker counts per accelerator type.
        steps_remaining: Training steps left for each job (defaults to each
            job's ``total_steps``).
        time_elapsed: Wall-clock seconds since each job's arrival (``t_m`` in
            the finish-time-fairness objective); defaults to zero.
        current_time: Wall-clock time of the snapshot, in seconds.
        group_counts: When set, this problem is a *type-aggregated* view
            (see :mod:`repro.core.aggregation`): each job here is the
            representative of a group of interchangeable jobs and the mapping
            gives the group size per representative id.  Decision variables
            then carry group-*total* allocations (per-job validity right-hand
            sides become the group size) and policies must not re-aggregate.
            ``None`` (the default) means the ordinary one-row-per-job problem.
    """

    jobs: Mapping[int, Job]
    throughputs: ThroughputMatrix
    cluster_spec: ClusterSpec
    steps_remaining: Mapping[int, float] = field(default_factory=dict)
    time_elapsed: Mapping[int, float] = field(default_factory=dict)
    current_time: float = 0.0
    group_counts: Optional[Mapping[int, int]] = None

    def __deepcopy__(self, memo: dict) -> "PolicyProblem":
        return self  # immutable: a deep copy (a policy-session clone) shares it

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ConfigurationError("policy problem must contain at least one job")
        # Runs once per re-allocation over every active job: comparisons of
        # key views and one comprehension, no Python loop per job.
        matrix_jobs = set(self.throughputs.job_ids)
        problem_jobs = self.jobs.keys()
        if problem_jobs != matrix_jobs:
            raise ConfigurationError(
                "throughput matrix jobs and problem jobs differ: "
                f"matrix-only={sorted(matrix_jobs - problem_jobs)}, "
                f"problem-only={sorted(problem_jobs - matrix_jobs)}"
            )
        if [job.job_id for job in self.jobs.values()] != list(problem_jobs):
            job_id, job = next(item for item in self.jobs.items() if item[0] != item[1].job_id)
            raise ConfigurationError(
                f"jobs mapping key {job_id} does not match job id {job.job_id}"
            )
        for label, mapping in (
            ("steps_remaining", self.steps_remaining),
            ("time_elapsed", self.time_elapsed),
        ):
            if not problem_jobs >= mapping.keys():
                raise ConfigurationError(
                    f"{label} references job ids that are not in the problem: "
                    f"{sorted(mapping.keys() - problem_jobs)}"
                )
        if self.group_counts is not None:
            stale = self.group_counts.keys() - problem_jobs
            if stale:
                raise ConfigurationError(
                    "group_counts references job ids that are not in the problem: "
                    f"{sorted(stale)}"
                )
            for job_id, count in self.group_counts.items():
                if int(count) != count or count < 1:
                    raise ConfigurationError(
                        f"group_counts[{job_id}] must be a positive integer, got {count}"
                    )

    # -- convenience accessors -------------------------------------------------
    @cached_property
    def job_ids(self) -> Tuple[int, ...]:
        """The job ids, sorted (``jobs`` is never edited after construction)."""
        return tuple(sorted(self.jobs))

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    def job(self, job_id: int) -> Job:
        if job_id not in self.jobs:
            raise UnknownJobError(f"job {job_id} is not part of this problem")
        return self.jobs[job_id]

    def scale_factor(self, job_id: int) -> int:
        return self.job(job_id).scale_factor

    def scale_factors(self) -> Dict[int, int]:
        return {job_id: job.scale_factor for job_id, job in self.jobs.items()}

    def priority_weight(self, job_id: int) -> float:
        return self.job(job_id).priority_weight

    def group_count(self, job_id: int) -> int:
        """Size of the group ``job_id`` represents (1 when not aggregated)."""
        if self.group_counts is None:
            return 1
        return int(self.group_counts.get(job_id, 1))

    def remaining_steps(self, job_id: int) -> float:
        job = self.job(job_id)
        return float(self.steps_remaining.get(job_id, job.total_steps))

    def elapsed(self, job_id: int) -> float:
        return float(self.time_elapsed.get(job_id, 0.0))

    def arrival_order(self) -> Tuple[int, ...]:
        """Job ids sorted by (arrival time, job id) — the FIFO order."""
        return tuple(
            job_id
            for job_id, _ in sorted(
                self.jobs.items(), key=lambda item: (item[1].arrival_time, item[0])
            )
        )
