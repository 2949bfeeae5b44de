"""Round-based scheduling mechanism — Section 5, Algorithm 1.

Each round the mechanism picks, per accelerator type, the job combinations
with the highest priority that fit in the remaining worker budget, subject to
the constraint that no job appears in more than one scheduled combination in
the same round.

Selection runs on the tracker's dense arrays (see
:mod:`repro.scheduler.priorities`): the candidates are the cells with a
positive target and a positive priority (one mask — NaN is not positive), and
one ``np.lexsort`` puts them in Algorithm 1's order: priority descending
(never-run cells are ``+inf`` and need no sentinel), then target descending,
then combination — which is row order, because rows are the *sorted*
combinations — then accelerator *name*, through a per-cluster name rank since
registry column order is not alphabetical.  Only the greedy pick itself, which
is inherently sequential (each pick consumes workers and marks jobs busy),
stays a Python loop, over the pre-sorted index lists and with an early exit
once every worker is taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.cluster.cluster_spec import ClusterSpec
from repro.cluster.placement import PlacementRequest
from repro.exceptions import SchedulingError
from repro.scheduler.priorities import PriorityTracker

__all__ = ["ScheduledCombination", "RoundScheduler", "scheduled_job_ids"]


def scheduled_job_ids(scheduled: Sequence["ScheduledCombination"]) -> Tuple[int, ...]:
    """Sorted ids of every job that received workers in one round.

    The service core stamps each job's first-allocation time (the
    time-to-first-allocation latency metric) from this set, so the mechanism
    — not the accounting loop — defines what "allocated" means in round mode.
    """
    ids: Set[int] = set()
    for item in scheduled:
        ids.update(item.combination)
    return tuple(sorted(ids))


@dataclass(frozen=True)
class ScheduledCombination(PlacementRequest):
    """One job combination scheduled on one accelerator type for a round.

    It *is* the round's placement request for that combination (the placer
    takes the scheduled list as-is) plus the priority it was picked at.
    """

    priority: float


class RoundScheduler:
    """Greedy highest-priority-first selection of combinations for one round."""

    def __init__(self, cluster_spec: ClusterSpec) -> None:
        self._cluster_spec = cluster_spec
        self._names: Tuple[str, ...] = cluster_spec.registry.names
        self._capacity: List[int] = [cluster_spec.count(name) for name in self._names]
        # Algorithm 1's last tie-break is the accelerator *name*, and registry
        # column order (v100, p100, k80) is not alphabetical.
        self._name_rank: np.ndarray = np.argsort(np.argsort(self._names))

    def schedule_round(self, tracker: PriorityTracker) -> List[ScheduledCombination]:
        """Select the combinations to run in the upcoming round.

        Args:
            tracker: Priority tracker holding the period's target allocation,
                per-combination worker demand and the time received so far.

        Returns:
            Scheduled combinations (at most one per job), in pick order, whose
            total worker demand per accelerator type fits the cluster.
        """
        priorities = tracker.priorities()
        target = tracker.target
        # ``priorities > 0`` is False for NaN: a NaN candidate would make the
        # order non-total, so it is never a candidate.
        rows, columns = np.nonzero((target > 0) & (priorities > 0))
        priority = priorities[rows, columns]
        # Higher priority first (never-run cells are +inf), then larger
        # target, then combination (rows are sorted), then accelerator name.
        order = np.lexsort(
            (self._name_rank[columns], rows, -target[rows, columns], -priority)
        )

        combinations, demand, names = tracker.combinations, tracker.demand, self._names
        remaining = list(self._capacity)
        idle_workers = sum(remaining)
        scheduled: List[ScheduledCombination] = []
        busy_jobs: Set[int] = set()
        for row, column, value in zip(
            rows[order].tolist(), columns[order].tolist(), priority[order].tolist()
        ):
            combination, scale = combinations[row], demand[row]
            if remaining[column] < scale or not busy_jobs.isdisjoint(combination):
                continue
            remaining[column] -= scale
            busy_jobs.update(combination)
            scheduled.append(ScheduledCombination(combination, names[column], scale, value))
            idle_workers -= scale
            if idle_workers == 0:
                break
        return scheduled

    def validate_round(self, scheduled: Sequence[ScheduledCombination]) -> None:
        """Sanity-check a round: no job twice, no accelerator type oversubscribed."""
        seen: Set[int] = set()
        usage: Dict[str, int] = {}
        for item in scheduled:
            for job_id in item.combination:
                if job_id in seen:
                    raise SchedulingError(f"job {job_id} scheduled more than once in a round")
                seen.add(job_id)
            usage[item.accelerator_name] = usage.get(item.accelerator_name, 0) + item.scale_factor
        for name, used in usage.items():
            if used > self._cluster_spec.count(name):
                raise SchedulingError(
                    f"round oversubscribes {name}: {used} > {self._cluster_spec.count(name)}"
                )
