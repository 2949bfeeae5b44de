"""Baseline schedulers the paper compares against.

* ``IsolatedPolicy`` — every job receives a static 1/n slice of the cluster
  (the "isolated allocation" of Ghodsi et al. used as a fairness yardstick).
* ``GandivaPolicy`` — heterogeneity-agnostic fair sharing with Gandiva-style
  *ad-hoc* space sharing: job pairs are explored at random and packed together
  whenever the random probe finds a combination that improves throughput,
  without ever optimizing pair selection globally.
* ``AlloXPolicy`` — AlloX's average-JCT-optimal assignment of single-worker
  jobs to heterogeneous devices, computed as a min-cost bipartite matching of
  jobs to (accelerator type, queue position) slots.
"""

from __future__ import annotations

import copy
import math
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.core.allocation import Allocation
from repro.core.policy import Policy
from repro.core.problem import PolicyProblem
from repro.core.throughput_matrix import JobCombination, ThroughputMatrix
from repro.exceptions import ConfigurationError

__all__ = ["IsolatedPolicy", "GandivaPolicy", "AlloXPolicy"]


class IsolatedPolicy(Policy):
    """Static equal partitioning: every job gets a 1/n share of every accelerator type."""

    name = "isolated"

    def compute_allocation(self, problem: PolicyProblem) -> Allocation:
        matrix = self.effective_matrix(problem).restrict_to_singletons()
        counts = problem.cluster_spec.counts_vector()
        num_jobs = problem.num_jobs
        entries: Dict[JobCombination, np.ndarray] = {}
        for job_id in problem.job_ids:
            scale = problem.scale_factor(job_id)
            fractions = counts / (num_jobs * scale)
            total = fractions.sum()
            if total > 1.0:
                fractions = fractions / total
            runnable = matrix.isolated_throughputs(job_id) > 0
            entries[(job_id,)] = np.where(runnable, fractions, 0.0)
        return Allocation(matrix.registry, entries, scale_factors=problem.scale_factors())


class GandivaPolicy(Policy):
    """Heterogeneity-agnostic fair sharing with random (ad-hoc) job packing."""

    name = "gandiva"

    def __init__(self, packing_trials: int = 50, seed: int = 0, space_sharing: bool = True) -> None:
        # Gandiva is inherently heterogeneity-agnostic; packing is its form of
        # space sharing.
        super().__init__(heterogeneity_agnostic=True, space_sharing=space_sharing)
        if packing_trials < 0:
            raise ConfigurationError("packing_trials must be non-negative")
        self._packing_trials = packing_trials
        self._rng = np.random.default_rng(seed)

    def checkpoint_state(self) -> object:
        """The packing generator's state: every packing advances it."""
        return self._rng.bit_generator.state  # a fresh dict per read

    def restored(self, state: object) -> "GandivaPolicy":
        """A private copy whose packing generator resumes at ``state``.

        Schedulers restored from one snapshot, and the scheduler that took
        it, then draw their packings from generators of their own.
        """
        twin = copy.copy(self)
        twin._rng = np.random.default_rng(0)
        twin._rng.bit_generator.state = state
        return twin

    def compute_allocation(self, problem: PolicyProblem) -> Allocation:
        full_matrix = problem.throughputs
        singles = full_matrix.restrict_to_singletons()
        counts = problem.cluster_spec.counts_vector()
        num_jobs = problem.num_jobs

        # Start from a heterogeneity-agnostic equal time share for every job.
        entries: Dict[JobCombination, np.ndarray] = {}
        for job_id in problem.job_ids:
            scale = problem.scale_factor(job_id)
            fractions = counts / (num_jobs * scale)
            total = fractions.sum()
            if total > 1.0:
                fractions = fractions / total
            runnable = singles.isolated_throughputs(job_id) > 0
            entries[(job_id,)] = np.where(runnable, fractions, 0.0)

        if self.space_sharing and full_matrix.has_space_sharing() and self._packing_trials > 0:
            entries = self._randomly_pack(problem, full_matrix, entries)

        return Allocation(full_matrix.registry, entries, scale_factors=problem.scale_factors())

    def _randomly_pack(
        self,
        problem: PolicyProblem,
        matrix: ThroughputMatrix,
        entries: Dict[JobCombination, np.ndarray],
    ) -> Dict[JobCombination, np.ndarray]:
        """Randomly probe pair combinations and merge the ones that help.

        A probe succeeds when the pair's combined throughput (normalized to
        the jobs' isolated throughputs) exceeds 1.0 on the accelerator type
        where both jobs currently hold the largest allocation; the two jobs'
        allocations on that type are then merged into the pair row.  This
        mirrors Gandiva's introspective trial-and-error packing.
        """
        pair_rows = [c for c in matrix.combinations if len(c) == 2]
        if not pair_rows:
            return entries
        packed: Set[int] = set()
        num_accels = len(matrix.registry)
        for _ in range(self._packing_trials):
            combination = pair_rows[int(self._rng.integers(0, len(pair_rows)))]
            first, second = combination
            if first in packed or second in packed:
                continue
            if (first,) not in entries or (second,) not in entries:
                continue
            shared = entries[(first,)] * entries[(second,)]
            if not np.any(shared > 0):
                continue
            column = int(np.argmax(entries[(first,)] + entries[(second,)]))
            row = matrix.row(combination)
            isolated_first = matrix.isolated_throughputs(first)[column]
            isolated_second = matrix.isolated_throughputs(second)[column]
            if isolated_first <= 0 or isolated_second <= 0:
                continue
            combined = row[0, column] / isolated_first + row[1, column] / isolated_second
            if combined <= 1.0:
                continue
            # Cap the shared fraction so neither job's total allocation
            # (other accelerator types plus the shared slot) exceeds 1.
            headroom_first = 1.0 - (entries[(first,)].sum() - entries[(first,)][column])
            headroom_second = 1.0 - (entries[(second,)].sum() - entries[(second,)][column])
            pair_fraction = min(
                entries[(first,)][column] + entries[(second,)][column],
                headroom_first,
                headroom_second,
                1.0,
            )
            if pair_fraction <= 0:
                continue
            pair_row = np.zeros(num_accels)
            pair_row[column] = pair_fraction
            entries[combination] = pair_row
            entries[(first,)][column] = 0.0
            entries[(second,)][column] = 0.0
            packed.update(combination)
        return entries


class AlloXPolicy(Policy):
    """AlloX: minimize average JCT of single-worker jobs on a heterogeneous cluster.

    Each worker is a "machine"; assigning job ``i`` to machine ``j`` at
    position ``k`` (counted from the end of that machine's queue) contributes
    ``k * processing_time_ij`` to the sum of completion times, so the optimal
    assignment is a min-cost bipartite matching.  The returned allocation runs,
    on every accelerator type, the jobs scheduled *first* on that type's
    machines; as jobs complete the policy is recomputed and the queue drains
    in the matched order.
    """

    name = "allox"

    def __init__(self, space_sharing: bool = False) -> None:
        super().__init__(heterogeneity_agnostic=False, space_sharing=False)

    def compute_allocation(self, problem: PolicyProblem) -> Allocation:
        matrix = self.effective_matrix(problem).restrict_to_singletons()
        registry = matrix.registry
        counts = problem.cluster_spec.counts_vector().astype(int)

        job_ids = [
            job_id for job_id in problem.job_ids if problem.scale_factor(job_id) == 1
        ]
        multi_worker = [job_id for job_id in problem.job_ids if problem.scale_factor(job_id) > 1]
        entries: Dict[JobCombination, np.ndarray] = {
            (job_id,): np.zeros(len(registry)) for job_id in problem.job_ids
        }
        if job_ids:
            assignment = self._match(problem, matrix, job_ids, counts)
            for job_id, column in assignment.items():
                entries[(job_id,)][column] = 1.0

        # AlloX only handles single-worker jobs; distributed jobs fall back to
        # their fastest accelerator so they are not starved forever.
        for job_id in multi_worker:
            throughputs = matrix.isolated_throughputs(job_id)
            if np.any(throughputs > 0):
                entries[(job_id,)][int(np.argmax(throughputs))] = 1.0

        allocation = Allocation(registry, entries, scale_factors=problem.scale_factors())
        return allocation

    def _match(
        self,
        problem: PolicyProblem,
        matrix: ThroughputMatrix,
        job_ids: Sequence[int],
        counts: np.ndarray,
    ) -> Dict[int, int]:
        """Return, for the jobs that should run *now*, their accelerator column."""
        num_machines = int(counts.sum())
        if num_machines == 0:
            return {}
        positions_needed = max(1, math.ceil(len(job_ids) / num_machines))

        # Column s of the assignment problem is a (machine, position) slot.
        machine_columns: List[Tuple[int, int]] = []  # (accelerator column, position)
        for accel_column, count in enumerate(counts):
            for _ in range(int(count)):
                for position in range(1, positions_needed + 1):
                    machine_columns.append((accel_column, position))

        cost = np.full((len(job_ids), len(machine_columns)), 1e12)
        for row, job_id in enumerate(job_ids):
            throughputs = matrix.isolated_throughputs(job_id)
            steps = problem.remaining_steps(job_id)
            for col, (accel_column, position) in enumerate(machine_columns):
                throughput = throughputs[accel_column]
                if throughput > 0:
                    cost[row, col] = position * steps / throughput

        rows, cols = linear_sum_assignment(cost)
        # Jobs matched to position 1 are the last in their machine's queue; the
        # ones with the *highest* position run first.  For the allocation we
        # run, per accelerator type, the jobs with the largest assigned
        # positions (at most ``counts`` of them).
        chosen: Dict[int, int] = {}
        per_type: Dict[int, List[Tuple[int, int]]] = {}
        for row, col in zip(rows, cols):
            if cost[row, col] >= 1e12:
                continue
            accel_column, position = machine_columns[col]
            per_type.setdefault(accel_column, []).append((position, job_ids[row]))
        for accel_column, items in per_type.items():
            items.sort(reverse=True)  # highest position runs first
            for _, job_id in items[: int(counts[accel_column])]:
                chosen[job_id] = accel_column
        return chosen
