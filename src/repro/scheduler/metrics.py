"""Metrics collected by the scheduler service (and therefore the simulator).

The evaluation section reports average job completion time (JCT), JCT CDFs
split into short and long jobs, makespan, finish-time fairness, dollar cost,
SLO violations and cluster utilization; this module holds the per-job records
and the aggregation helpers that compute those quantities.  The records are
written by :class:`~repro.scheduler.service.ClusterScheduler` as it executes
rounds; ``repro.simulator`` re-exports the public names for convenience.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.workloads.job import Job

__all__ = ["JobRecord", "SimulationResult", "cdf_points"]


@dataclass
class JobRecord:
    """Outcome of a single job in one simulation."""

    job: Job
    completion_time: Optional[float] = None
    steps_done: float = 0.0
    cost_dollars: float = 0.0
    accelerator_seconds: Dict[str, float] = field(default_factory=dict)
    preemptions: int = 0
    #: Wall-clock seconds this job spent in checkpoint/restore windows
    #: (physical mode).  The device is held — and billed — during these
    #: windows, but no training progress is made; tracking them separately
    #: keeps Table 3 cost numbers decomposable into productive and overhead
    #: components.
    checkpoint_seconds: float = 0.0
    #: Whether the job was cancelled through the online scheduler API before
    #: completing; cancelled jobs never count as completed.
    cancelled: bool = False
    #: Simulated time at which the job first received a non-zero allocation
    #: (workers in round mode, fluid throughput in ideal/continuous mode);
    #: ``None`` while the job is still waiting.
    first_allocation_time: Optional[float] = None

    def copy(self) -> "JobRecord":
        """An independent record: the frozen ``job`` is shared, the seconds map is not.

        Copies the instance dict instead of going through
        :func:`dataclasses.replace` (field introspection plus ``__init__``),
        several times slower; snapshots and results copy every live job's
        record.
        """
        clone = object.__new__(JobRecord)
        clone.__dict__.update(self.__dict__)
        clone.accelerator_seconds = dict(self.accelerator_seconds)
        return clone

    @property
    def completed(self) -> bool:
        return self.completion_time is not None and not self.cancelled

    @property
    def time_to_first_allocation(self) -> Optional[float]:
        """Queueing latency: first allocation minus arrival, in seconds."""
        if self.first_allocation_time is None:
            return None
        return self.first_allocation_time - self.job.arrival_time

    @property
    def jct_seconds(self) -> Optional[float]:
        """Job completion time: completion minus arrival."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.job.arrival_time

    @property
    def slo_violated(self) -> Optional[bool]:
        """Whether the job missed its SLO (``None`` when it has no SLO)."""
        if self.job.slo_seconds is None:
            return None
        if self.jct_seconds is None:
            return True
        return self.jct_seconds > self.job.slo_seconds

    def finish_time_fairness(self, isolated_duration_seconds: float) -> Optional[float]:
        """Themis rho: achieved JCT over the JCT under a dedicated 1/n share."""
        if self.jct_seconds is None or isolated_duration_seconds <= 0:
            return None
        return self.jct_seconds / isolated_duration_seconds


@dataclass
class SimulationResult:
    """Aggregate outcome of one simulation run."""

    policy_name: str
    records: Dict[int, JobRecord]
    end_time: float
    num_rounds: int
    #: Worker-seconds of device *occupancy* per accelerator type: a device is
    #: busy while any job scheduled on it is still running.
    busy_worker_seconds: Dict[str, float]
    capacity_worker_seconds: Dict[str, float]
    #: Sum of job-*attributable* cost: each job is billed for its own used
    #: time (prorated when it completes mid-round).  When one job of a
    #: space-shared pair finishes early, its released half-slot is occupied
    #: by the surviving job but billed to no one, so this can be slightly
    #: below busy-worker-hours x hourly rate.
    total_cost_dollars: float
    isolated_durations: Dict[int, float] = field(default_factory=dict)
    policy_compute_seconds: float = 0.0
    num_policy_recomputations: int = 0
    #: Worker-seconds per accelerator type spent on checkpoint/restore
    #: overhead (physical mode); a subset of ``busy_worker_seconds``.
    checkpoint_worker_seconds: Dict[str, float] = field(default_factory=dict)
    #: Wall-clock seconds spent preparing policy inputs (incremental
    #: throughput-matrix maintenance), as opposed to solving the policy
    #: optimization itself (``policy_compute_seconds``).
    matrix_prep_seconds: float = 0.0
    #: Summed incorporation latency (seconds): for every churn event (arrival,
    #: completion, cancel, resize, policy swap) the delay between the event's
    #: occurrence and the allocation re-solve that first incorporated it.
    #: Round mode incorporates events at the next round boundary (~d/2 lag on
    #: average for duration ``d``); continuous mode re-solves at the event
    #: instant, so its lag is zero by construction.
    allocation_staleness_integral: float = 0.0
    #: Number of churn events the staleness integral summed over.
    num_allocation_stale_events: int = 0

    # -- completion-time metrics --------------------------------------------------
    def completed_job_ids(self) -> List[int]:
        return sorted(job_id for job_id, record in self.records.items() if record.completed)

    def jcts_hours(self, job_ids: Optional[Iterable[int]] = None) -> List[float]:
        """Completion times in hours for the requested jobs (completed ones only)."""
        selected = set(job_ids) if job_ids is not None else set(self.records)
        values: List[float] = []
        for job_id in sorted(selected):
            record = self.records.get(job_id)
            if record is not None and record.jct_seconds is not None:
                values.append(record.jct_seconds / 3600.0)
        return values

    def average_jct_hours(self, job_ids: Optional[Iterable[int]] = None) -> float:
        """Mean JCT in hours over the requested (completed) jobs."""
        values = self.jcts_hours(job_ids)
        if not values:
            raise ConfigurationError("no completed jobs to average over")
        return float(np.mean(values))

    def makespan_hours(self) -> float:
        """Time at which the last job completed, in hours."""
        completions = [
            record.completion_time for record in self.records.values() if record.completed
        ]
        if not completions:
            raise ConfigurationError("no completed jobs; makespan undefined")
        return float(max(completions)) / 3600.0

    def completion_rate(self) -> float:
        """Fraction of submitted jobs that completed."""
        if not self.records:
            return 0.0
        return len(self.completed_job_ids()) / len(self.records)

    # -- allocation-latency metrics -------------------------------------------------
    def time_to_first_allocation_values(
        self, job_ids: Optional[Iterable[int]] = None
    ) -> List[float]:
        """Per-job queueing latencies (first allocation minus arrival), in seconds."""
        selected = set(job_ids) if job_ids is not None else set(self.records)
        values: List[float] = []
        for job_id in sorted(selected):
            record = self.records.get(job_id)
            if record is None:
                continue
            latency = record.time_to_first_allocation
            if latency is not None:
                values.append(latency)
        return values

    def average_time_to_first_allocation_seconds(
        self, job_ids: Optional[Iterable[int]] = None
    ) -> float:
        """Mean time-to-first-allocation over jobs that were ever allocated."""
        values = self.time_to_first_allocation_values(job_ids)
        if not values:
            raise ConfigurationError("no jobs ever received an allocation")
        return float(np.mean(values))

    def mean_allocation_staleness_seconds(self) -> float:
        """Average delay before a churn event is incorporated into a solve.

        Zero when no churn events were incorporated yet.  For round mode with
        duration ``d`` this tends to ``d / 2`` (events wait for the next round
        boundary); continuous mode re-solves at the event instant, so it is
        exactly zero.
        """
        if self.num_allocation_stale_events <= 0:
            return 0.0
        return self.allocation_staleness_integral / self.num_allocation_stale_events

    # -- fairness metrics -----------------------------------------------------------
    def finish_time_fairness_values(
        self, job_ids: Optional[Iterable[int]] = None
    ) -> List[float]:
        """Themis rho values for completed jobs with a known isolated duration."""
        selected = set(job_ids) if job_ids is not None else set(self.records)
        values: List[float] = []
        for job_id in sorted(selected):
            record = self.records.get(job_id)
            isolated = self.isolated_durations.get(job_id)
            if record is None or isolated is None:
                continue
            rho = record.finish_time_fairness(isolated)
            if rho is not None:
                values.append(rho)
        return values

    def average_finish_time_fairness(self, job_ids: Optional[Iterable[int]] = None) -> float:
        values = self.finish_time_fairness_values(job_ids)
        if not values:
            raise ConfigurationError("no finish-time-fairness values available")
        return float(np.mean(values))

    # -- cost and SLO metrics ----------------------------------------------------------
    def slo_violation_rate(self) -> float:
        """Fraction of SLO-carrying jobs that missed their SLO."""
        outcomes = [
            record.slo_violated
            for record in self.records.values()
            if record.slo_violated is not None
        ]
        if not outcomes:
            return 0.0
        return float(np.mean([1.0 if violated else 0.0 for violated in outcomes]))

    # -- utilization ----------------------------------------------------------------------
    def utilization(self) -> float:
        """Busy worker-seconds over capacity worker-seconds, across all types."""
        busy = sum(self.busy_worker_seconds.values())
        capacity = sum(self.capacity_worker_seconds.values())
        if capacity <= 0:
            return 0.0
        return busy / capacity

    def utilization_by_type(self) -> Dict[str, float]:
        result: Dict[str, float] = {}
        for name, capacity in self.capacity_worker_seconds.items():
            busy = self.busy_worker_seconds.get(name, 0.0)
            result[name] = busy / capacity if capacity > 0 else 0.0
        return result

    def productive_utilization(self) -> float:
        """Utilization counting only productive time (busy minus checkpoint overhead).

        In physical mode some busy worker-seconds are checkpoint/restore
        windows that make no training progress; this metric excludes them.
        Equal to :meth:`utilization` when there is no overhead.
        """
        busy = sum(self.busy_worker_seconds.values())
        overhead = sum(self.checkpoint_worker_seconds.values())
        capacity = sum(self.capacity_worker_seconds.values())
        if capacity <= 0:
            return 0.0
        return max(0.0, busy - overhead) / capacity

    def checkpoint_overhead_fraction(self) -> float:
        """Fraction of busy worker-seconds spent on checkpoint/restore overhead."""
        busy = sum(self.busy_worker_seconds.values())
        if busy <= 0:
            return 0.0
        return sum(self.checkpoint_worker_seconds.values()) / busy

    # -- short/long split used by the CDF figures ----------------------------------------
    def split_short_long(
        self, job_ids: Optional[Iterable[int]] = None, threshold_hours: float = 10.0
    ) -> Tuple[List[int], List[int]]:
        """Split jobs into short and long by their *ideal* reference duration."""
        selected = set(job_ids) if job_ids is not None else set(self.records)
        short: List[int] = []
        long: List[int] = []
        for job_id in sorted(selected):
            record = self.records.get(job_id)
            if record is None:
                continue
            reference = record.job.duration_seconds_on_reference
            ideal_hours = (
                reference / 3600.0 if reference is not None else (record.jct_seconds or 0) / 3600.0
            )
            (short if ideal_hours <= threshold_hours else long).append(job_id)
        return short, long


def cdf_points(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Return (sorted values, cumulative fractions) for plotting a CDF."""
    if len(values) == 0:
        return np.array([]), np.array([])
    ordered = np.sort(np.asarray(values, dtype=float))
    fractions = np.arange(1, len(ordered) + 1) / len(ordered)
    return ordered, fractions
