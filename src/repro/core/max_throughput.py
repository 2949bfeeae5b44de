"""Maximize total effective throughput — the baseline for the cost policies (§4.2)."""

from __future__ import annotations

from repro.core.policy import AllocationVariables, OptimizationPolicy
from repro.core.problem import PolicyProblem
from repro.solver.lp import LinearProgram

__all__ = ["MaxTotalThroughputPolicy"]


class MaxTotalThroughputPolicy(OptimizationPolicy):
    """Maximize ``sum_m throughput(m, X)`` subject to the validity constraints.

    Throughputs are normalized by each job's fastest-accelerator throughput so
    that jobs with intrinsically high step rates (small models) do not starve
    everything else; this matches how the paper's cost experiments use the
    policy (total *useful work*, not raw step count).
    """

    name = "max_total_throughput"

    def __init__(
        self,
        heterogeneity_agnostic: bool = False,
        space_sharing: bool = False,
        normalize: bool = True,
    ) -> None:
        super().__init__(heterogeneity_agnostic=heterogeneity_agnostic, space_sharing=space_sharing)
        self._normalize = normalize

    def build_objective(
        self,
        problem: PolicyProblem,
        variables: AllocationVariables,
        program: LinearProgram,
    ) -> None:
        matrix = variables.matrix
        weights = []
        for job_id in problem.job_ids:
            scale = 1.0
            if self._normalize:
                fastest = float(matrix.isolated_throughputs(job_id).max())
                scale = 1.0 / fastest if fastest > 0 else 0.0
            weights.append((job_id, scale))
        program.set_objective_from_arrays(*variables.throughput_sum_terms(weights), maximize=True)
