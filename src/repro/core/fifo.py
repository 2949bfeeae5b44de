"""FIFO policy — Section 4.2.

Jobs are served in arrival order.  In a heterogeneous cluster this means the
earliest-arrived jobs should run on the fastest accelerators available to
them; the paper expresses this as a weighted throughput-maximization problem
where job ``m`` (the ``m``-th arrival out of ``M``) is weighted by ``M - m``:

    maximize_X  sum_m  (M - m) * throughput(m, X) / throughput(m, X^fastest)
"""

from __future__ import annotations

from repro.core.effective_throughput import fastest_reference_throughput
from repro.core.policy import AllocationVariables, OptimizationPolicy
from repro.core.problem import PolicyProblem
from repro.exceptions import ConfigurationError
from repro.solver.lp import LinearProgram

__all__ = ["FifoPolicy"]


class FifoPolicy(OptimizationPolicy):
    """First-in-first-out with heterogeneity-aware accelerator assignment."""

    name = "fifo"

    def build_objective(
        self,
        problem: PolicyProblem,
        variables: AllocationVariables,
        program: LinearProgram,
    ) -> None:
        arrival_order = problem.arrival_order()
        total_jobs = len(arrival_order)
        matrix = variables.matrix
        weights = []
        for position, job_id in enumerate(arrival_order):
            fastest = fastest_reference_throughput(matrix, job_id)
            if fastest <= 0:
                raise ConfigurationError(
                    f"job {job_id} has zero throughput on every accelerator type"
                )
            weights.append((job_id, float(total_jobs - position) / fastest))
        program.set_objective_from_arrays(*variables.throughput_sum_terms(weights), maximize=True)
