"""Round-based scheduling mechanism — Section 5, Algorithm 1.

Each round the mechanism picks, per accelerator type, the job combinations
with the highest priority that fit in the remaining worker budget, subject to
the constraint that no job appears in more than one scheduled combination in
the same round.

Selection runs on the tracker's candidate index (see
:mod:`repro.scheduler.priorities`): the period's cells with a positive
target, found and pre-sorted once per allocation period by Algorithm 1's
static tie-breaks — target descending, then combination (row order, because
rows are the *sorted* combinations), then accelerator *name* (a name rank:
registry column order is not alphabetical).  A round prices only those cells
and completes the order with one stable ``argsort`` on priority descending
(never-run cells are ``+inf`` and need no sentinel), which walks exactly the
cells a ``lexsort`` on (priority, target, row, name) would, in the same
order; cells whose priority is not positive, NaN included, sort last and are
cut off.  Only the greedy pick itself, which is inherently sequential (each
pick consumes workers and marks jobs busy), stays a Python loop over the
sorted index lists.  It has two exits: every worker is taken, or every job
of the period's allocation is busy — from then on each remaining candidate
would fail the disjointness test, so stopping changes nothing but the
candidates walked (about half of them, when the cluster is larger than the
job count).

A round is *indices*, from here to the accounting loop: :class:`RoundPicks`
holds the picked ``(row, column)`` cells of the tracker's arrays as parallel
lists, and placement, validation, time accounting and the service's progress
loop all read those.  :class:`ScheduledCombination` objects — combination,
accelerator name, scale, priority — exist only for whoever iterates or indexes
the picks (tests, tools, the scalar reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Set, Tuple

import numpy as np

from repro.cluster.cluster_spec import ClusterSpec
from repro.core.throughput_matrix import JobCombination
from repro.exceptions import SchedulingError
from repro.scheduler.priorities import PriorityTracker

__all__ = ["ScheduledCombination", "RoundPicks", "RoundScheduler"]


@dataclass(frozen=True)
class ScheduledCombination:
    """One job combination scheduled on one accelerator type for a round."""

    combination: JobCombination
    accelerator_name: str
    scale_factor: int
    priority: float


@dataclass
class RoundPicks:
    """One round's picks, in pick order, as parallel index lists.

    ``rows[i]`` / ``columns[i]`` address the picked cell in the tracker's
    arrays (``combinations[rows[i]]`` on accelerator ``names[columns[i]]``),
    ``scales[i]`` is the workers it occupies and ``priorities[i]`` the priority
    it was picked at.  ``len()`` is the number of picks; iterating or indexing
    materialises :class:`ScheduledCombination` views.
    """

    combinations: Sequence[JobCombination]
    names: Sequence[str]
    rows: List[int]
    columns: List[int]
    scales: List[int]
    priorities: List[float]

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int) -> ScheduledCombination:
        return ScheduledCombination(
            self.combinations[self.rows[index]],
            self.names[self.columns[index]],
            self.scales[index],
            self.priorities[index],
        )

    def __iter__(self) -> Iterator[ScheduledCombination]:
        return (self[index] for index in range(len(self)))


class RoundScheduler:
    """Greedy highest-priority-first selection of combinations for one round."""

    def __init__(self, cluster_spec: ClusterSpec) -> None:
        self._names: Tuple[str, ...] = cluster_spec.registry.names
        self._capacity: List[int] = [cluster_spec.count(name) for name in self._names]

    def schedule_round(self, tracker: PriorityTracker) -> RoundPicks:
        """Select the combinations to run in the upcoming round.

        Args:
            tracker: Priority tracker holding the period's target allocation,
                per-combination worker demand and the time received so far.

        Returns:
            The picks (at most one per job), in pick order, whose total worker
            demand per accelerator type fits the cluster.
        """
        candidates = tracker.candidates
        priority = tracker.candidate_priorities()
        # The candidates come in the static tie-break order, so one stable
        # sort on priority descending (never-run cells are +inf) completes
        # Algorithm 1's order.  It puts the positive priorities first and
        # NaN last, and ``priority > 0`` is False for NaN: the cells to walk
        # are a prefix, and a NaN, which would make the order non-total, is
        # never walked.
        order = (-priority).argsort(kind="stable")[: np.count_nonzero(priority > 0)]
        rows, columns = candidates.rows[order], candidates.columns[order]

        combinations, demand, num_jobs = tracker.combinations, tracker.demand, tracker.num_jobs
        remaining = list(self._capacity)
        idle_workers = sum(remaining)
        busy_jobs: Set[int] = set()
        picked_rows: List[int] = []
        picked_columns: List[int] = []
        picked_scales: List[int] = []
        picked_priorities: List[float] = []
        for row, column, value in zip(rows.tolist(), columns.tolist(), priority[order].tolist()):
            combination, scale = combinations[row], demand[row]
            if remaining[column] < scale or not busy_jobs.isdisjoint(combination):
                continue
            remaining[column] -= scale
            busy_jobs.update(combination)
            picked_rows.append(row)
            picked_columns.append(column)
            picked_scales.append(scale)
            picked_priorities.append(value)
            idle_workers -= scale
            if idle_workers == 0 or len(busy_jobs) == num_jobs:
                break
        return RoundPicks(
            combinations, self._names, picked_rows, picked_columns, picked_scales, picked_priorities
        )

    def validate_round(self, picks: RoundPicks) -> None:
        """Sanity-check a round: no job twice, no accelerator type oversubscribed."""
        combinations = picks.combinations
        jobs = [job_id for row in picks.rows for job_id in combinations[row]]
        if len(set(jobs)) != len(jobs):
            repeated = next(job_id for job_id in jobs if jobs.count(job_id) > 1)
            raise SchedulingError(f"job {repeated} scheduled more than once in a round")
        usage = [0] * len(self._capacity)
        for column, scale in zip(picks.columns, picks.scales):
            usage[column] += scale
        for name, used, capacity in zip(self._names, usage, self._capacity):
            if used > capacity:
                raise SchedulingError(f"round oversubscribes {name}: {used} > {capacity}")
