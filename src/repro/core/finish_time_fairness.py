"""Finish-time fairness (Themis) policy — Section 4.2.

Themis defines the finish-time-fairness metric

    rho(m, X) = (t_m + num_steps_m / throughput(m, X))
                / (t_m^isolated + num_steps_m / throughput(m, X^isolated))

and the policy minimizes ``max_m rho(m, X)``.  The numerator contains
``1 / throughput(m, X)``, so the problem is not linear, but for a fixed
``rho`` it is:

    rho is achievable  <=>  exists valid X with, for every job m,
        throughput(m, X) >= num_steps_m / (rho * D_m - t_m)
    where D_m is the (constant) isolated finish time in the denominator.

The right-hand sides ``r_m(rho)`` decrease in ``rho``, which makes this one
of the two *minimum-scalar* problems solved by
:class:`~repro.core.session.ThroughputRequirementSession` (makespan is the
other): no search over ``rho``, but a Newton iteration in which every LP
certifies a bound on each side.  A *scaling* LP at a candidate ``rho_k`` —
``max y`` subject to ``throughput(m, X) >= r_m(rho_k) * y`` — returns an
allocation whose own ``max_m rho(m, X)`` is an upper bound ``U``, and job-row
multipliers ``lambda`` for which weak duality reads ``sum_m lambda_m r_m(rho)
<= y_k * sum_m lambda_m r_m(rho_k)`` at every achievable ``rho``; the root
``L`` of that inequality is a lower bound, and the next candidate sits just
right of it.  The first candidate is ``rho = 1``, the sharing-incentive point,
where ``r_m`` is the isolated throughput itself and the isolated allocation
is feasible — so the optimum is at most 1 and nothing like a search ceiling
exists.  When ``U - L <= relative_tolerance * U`` one *witness* LP at ``U``
(total throughput as its objective) produces the allocation.  Measured on the
end-to-end benchmark's ``churn_tour`` (86 re-allocations under this policy,
seed 7): 2.8 LPs per re-allocation including the witness (1.79 scaling LPs),
never more than 4, where the bracket search this replaces took 10.3.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.allocation import Allocation
from repro.core.policy import Policy
from repro.core.problem import PolicyProblem
from repro.core.session import (
    PolicySession,
    RequirementCurves,
    ThroughputRequirementSession,
    steps_and_isolated_throughputs,
)
from repro.core.throughput_matrix import ThroughputMatrix
from repro.exceptions import InfeasibleError

__all__ = [
    "FinishTimeFairnessPolicy",
    "FinishTimeFairnessSession",
    "finish_time_fairness_rho",
    "finish_time_requirements",
]


def finish_time_fairness_rho(
    elapsed: float,
    remaining_steps: float,
    achieved_throughput: float,
    isolated_throughput: float,
    isolated_elapsed: Optional[float] = None,
) -> float:
    """Compute the Themis rho metric for one job.

    Args:
        elapsed: Wall-clock seconds since the job arrived (``t_m``).
        remaining_steps: Steps left to train.
        achieved_throughput: Effective throughput under the evaluated allocation.
        isolated_throughput: Throughput under the isolated 1/n allocation.
        isolated_elapsed: ``t_m^isolated``; defaults to ``elapsed``.
    """
    isolated_elapsed = elapsed if isolated_elapsed is None else isolated_elapsed
    if isolated_throughput <= 0:
        return math.inf
    denominator = isolated_elapsed + remaining_steps / isolated_throughput
    if achieved_throughput <= 0:
        return math.inf
    numerator = elapsed + remaining_steps / achieved_throughput
    return numerator / denominator


def finish_time_requirements(
    problem: PolicyProblem, matrix: ThroughputMatrix
) -> RequirementCurves:
    """The curves ``r_m(rho) = num_steps_m / (rho * D_m - t_m)``, one per job of ``matrix``.

    ``D_m = t_m + num_steps_m / throughput(m, X^isolated)`` is the constant
    denominator of the rho metric.
    """
    job_ids = matrix.job_ids
    steps, isolated = steps_and_isolated_throughputs(problem, matrix)
    elapsed = np.fromiter((problem.elapsed(job_id) for job_id in job_ids), float, len(job_ids))
    if not (isolated > 0).all():
        stuck = job_ids[int(np.argmin(isolated))]
        raise InfeasibleError(f"job {stuck} has zero isolated throughput; rho is undefined")
    return RequirementCurves(steps=steps, elapsed=elapsed, reference=steps / isolated, start=1.0)


class FinishTimeFairnessPolicy(Policy):
    """Minimize the maximum finish-time-fairness rho across jobs."""

    name = "finish_time_fairness"

    def __init__(
        self,
        heterogeneity_agnostic: bool = False,
        space_sharing: bool = False,
        relative_tolerance: float = 1e-2,
    ) -> None:
        super().__init__(heterogeneity_agnostic=heterogeneity_agnostic, space_sharing=space_sharing)
        self._relative_tolerance = relative_tolerance

    @property
    def relative_tolerance(self) -> float:
        """Relative width of the certified bracket ``[L, U]`` a solve stops at."""
        return self._relative_tolerance

    def _make_session(self, problem: PolicyProblem) -> PolicySession:
        return FinishTimeFairnessSession(self, problem, self._relative_tolerance)

    def compute_allocation(self, problem: PolicyProblem) -> Allocation:
        return self.session(problem).solve(problem)


class FinishTimeFairnessSession(ThroughputRequirementSession):
    """Stateful Themis solver: persistent scaling and witness LPs, a certified rho."""

    def _requirements(self, problem: PolicyProblem) -> RequirementCurves:
        return finish_time_requirements(problem, self._variables.matrix)
