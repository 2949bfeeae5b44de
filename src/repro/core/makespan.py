"""Minimum-makespan policy — Section 4.2 and Appendix A.1.

The makespan of a batch of jobs is the maximum over jobs of
``num_steps_m / throughput(m, X)``.  Minimizing it directly is not linear, but
``M`` is achievable exactly when the LP

    throughput(m, X) >= num_steps_m / M   for every job m
    X valid (Section 3.1 constraints)

is feasible, and because these requirements are *multiplicative* in ``1 / M``
the smallest such ``M`` needs no search at all: for any ``M_0 > 0`` the
max-min LP

    max y   subject to   throughput(m, X) >= (num_steps_m / M_0) * y

has optimum ``y* = M_0 / M*``.  This is the one-step case of the certified
Newton iteration of :class:`~repro.core.session.ThroughputRequirementSession`
(finish-time fairness is the general one): the bound the LP's allocation
achieves and the bound its duals certify coincide, ``L = U = M_0 / y*``, after
one *scaling* LP from any start, and one *witness* LP at that makespan (rows
``throughput(m, X) >= num_steps_m / M*``, total throughput as its objective)
produces the allocation.  The policy is max-min LP + witness, exactly: two LPs
per re-allocation.  ``M_0`` is the makespan of the isolated 1/n allocation,
which keeps the ``y`` column on the scale of the throughputs.

:class:`MakespanSession` keeps both LPs alive across allocation
recomputations, each with its own basis.
"""

from __future__ import annotations

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

__all__ = ["MakespanPolicy", "MakespanSession", "makespan_requirements"]


def makespan_requirements(
    problem: PolicyProblem, matrix: ThroughputMatrix
) -> RequirementCurves:
    """The curves ``r_m(M) = num_steps_m / M``, one per job of ``matrix``.

    The first candidate is the makespan of the equal 1/n isolated share
    (always a valid allocation) over the jobs that can run at all.
    """
    steps, isolated = steps_and_isolated_throughputs(problem, matrix)
    runnable = isolated > 0
    start = float(np.max(steps[runnable] / isolated[runnable], initial=0.0))
    if start <= 0:
        raise InfeasibleError("no job with steps left can make progress on any accelerator type")
    return RequirementCurves(
        steps=steps, elapsed=np.zeros(len(steps)), reference=np.ones(len(steps)), start=start
    )


class MakespanPolicy(Policy):
    """Minimize the completion time of the last job in a batch."""

    name = "min_makespan"

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
        return MakespanSession(self, problem, self._relative_tolerance)

    def compute_allocation(self, problem: PolicyProblem) -> Allocation:
        return self.session(problem).solve(problem)


class MakespanSession(ThroughputRequirementSession):
    """Stateful makespan solver: a max-min scaling LP, then a witness LP, both persistent."""

    def _requirements(self, problem: PolicyProblem) -> RequirementCurves:
        return makespan_requirements(problem, self._variables.matrix)
