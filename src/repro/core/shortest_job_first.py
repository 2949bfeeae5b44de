"""Shortest-job-first policy — Section 4.2.

The paper states SJF as minimizing the duration of the shortest job,

    minimize_X  min_m  num_steps_m / throughput(m, X).

The exact optimum simply hands the job with the smallest best-case duration
all the resources it can use; to keep the rest of the cluster busy (and to
behave sensibly under the round-based mechanism) this implementation ranks
jobs by their best-case remaining duration and maximizes a rank-weighted sum
of normalized throughputs, mirroring the FIFO formulation but with
shortest-first rather than earliest-first weights.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.effective_throughput import fastest_reference_throughput
from repro.core.policy import AllocationVariables, OptimizationPolicy
from repro.core.problem import PolicyProblem
from repro.exceptions import ConfigurationError
from repro.solver.lp import LinearProgram

__all__ = ["ShortestJobFirstPolicy"]


class ShortestJobFirstPolicy(OptimizationPolicy):
    """Prioritize jobs by smallest best-case remaining duration."""

    name = "shortest_job_first"

    def ranked_jobs(self, problem: PolicyProblem) -> List[Tuple[int, float]]:
        """Jobs with their best-case remaining durations, shortest first."""
        matrix = self.effective_matrix(problem)
        ranked: List[Tuple[int, float]] = []
        for job_id in problem.job_ids:
            fastest = fastest_reference_throughput(matrix, job_id)
            if fastest <= 0:
                raise ConfigurationError(
                    f"job {job_id} has zero throughput on every accelerator type"
                )
            ranked.append((job_id, problem.remaining_steps(job_id) / fastest))
        ranked.sort(key=lambda item: (item[1], item[0]))
        return ranked

    def build_objective(
        self,
        problem: PolicyProblem,
        variables: AllocationVariables,
        program: LinearProgram,
    ) -> None:
        matrix = variables.matrix
        ranked = self.ranked_jobs(problem)
        total_jobs = len(ranked)
        weights = [
            (job_id, float(total_jobs - position) / fastest_reference_throughput(matrix, job_id))
            for position, (job_id, _duration) in enumerate(ranked)
        ]
        program.set_objective_from_arrays(*variables.throughput_sum_terms(weights), maximize=True)
