"""Max-min fairness (Least Attained Service) policies — Section 4.1.

The heterogeneity-aware LAS policy maximizes the minimum weighted normalized
effective throughput across jobs:

    maximize_X  min_m  (scale_factor_m / w_m) *
                throughput(m, X) / throughput(m, X^equal_m)

The heterogeneity-agnostic variant is obtained by flattening the throughput
matrix (every accelerator looks identical), which reduces the objective to
max-min fairness over total compute-time fractions, i.e. classic LAS as used
by Tiresias.

:class:`MaxMinFairnessSession` keeps the epigraph formulation alive across
allocation recomputations: the epigraph variable, its per-job constraints and
the objective persist, and only the constraints of jobs whose throughput
terms (or normalization) actually changed are rewritten — so a churn
event touches a handful of rows.  Whether HiGHS then re-solves from its
incumbent basis is the LP layer's contract, not a given
(:class:`~repro.solver.lp._HighsBackend`): measured on the end-to-end
benchmark's continuous per-job trace, 298 of 299 re-allocations enter HiGHS
with a valid basis and cost 3 simplex iterations in the median, 2.8 in the
mean (56 of 299, 22 and 115 before the basis survived row edits).  A warm
solve returns the optimal vertex nearest the previous allocation, not HiGHS'
canonical one, and the LAS optimum is rarely unique — see
:meth:`repro.core.water_filling._LevelLoopProgram._solve_level` for why only
the optimal *value* may be relied on.
"""

from __future__ import annotations

import functools
import math
from typing import List

import numpy as np

from repro.core.allocation import Allocation
from repro.core.effective_throughput import normalized_throughput_scale
from repro.core.policy import AllocationVariables, OptimizationPolicy
from repro.core.problem import PolicyProblem
from repro.core.session import (
    Encoding,
    IncrementalProgramSession,
    JobRows,
    NormalizationCache,
    PolicySession,
    RowKind,
)
from repro.core.throughput_matrix import ThroughputMatrix
from repro.solver.lp import LinearProgram, summed_terms

__all__ = ["MaxMinFairnessPolicy", "MaxMinFairnessSession"]


class MaxMinFairnessPolicy(OptimizationPolicy):
    """Weighted max-min fairness over normalized effective throughputs (LAS)."""

    name = "max_min_fairness"

    def _make_session(self, problem: PolicyProblem) -> PolicySession:
        return MaxMinFairnessSession(self, problem)

    def normalized_throughput_scale(
        self, problem: PolicyProblem, matrix: ThroughputMatrix, job_id: int
    ) -> float:
        """The factor turning ``throughput(m, X)`` into the LAS objective term.

        Delegates to the shared
        :func:`~repro.core.effective_throughput.normalized_throughput_scale`
        scaffolding also used by the water-filling level loop.
        """
        return normalized_throughput_scale(
            matrix,
            problem.cluster_spec,
            job_id,
            scale_factor=problem.scale_factor(job_id),
            priority_weight=problem.priority_weight(job_id),
        )

    def build_objective(
        self,
        problem: PolicyProblem,
        variables: AllocationVariables,
        program: LinearProgram,
    ) -> None:
        """``max t`` subject to ``t <= scale_m * throughput(m, X)`` for every job."""
        matrix = variables.matrix
        epigraph = program.add_variable(name="max_min_t", lower=-math.inf)
        rows, cols, coeffs = [], [], []
        for ordinal, job_id in enumerate(problem.job_ids):
            job_cols, job_vals = summed_terms(*variables.effective_throughput_terms(job_id))
            scale = self.normalized_throughput_scale(problem, matrix, job_id)
            rows.append(np.full(len(job_cols) + 1, ordinal))
            cols.append(np.append(job_cols, epigraph.index))
            coeffs.append(np.append(-(job_vals * scale), 1.0))
        program.add_constraints_from_arrays(
            np.concatenate(rows), np.concatenate(cols), np.concatenate(coeffs), -math.inf, 0.0
        )
        program.set_objective_from_arrays([epigraph.index], [1.0], maximize=True)


def _normalized_scale(
    policy: MaxMinFairnessPolicy, problem: PolicyProblem, matrix: ThroughputMatrix, job_id: int
) -> float:
    # Late-bound on purpose: the policy method is the override point.
    return policy.normalized_throughput_scale(problem, matrix, job_id)


def _epigraph_rows(
    epigraph: int, _job_ids: List[int], encoded: List[Encoding], _columns: np.ndarray
) -> List[RowKind]:
    """``t - scale_m * throughput(m, X) <= 0``: the terms times ``-scale_m``, then ``t``."""
    scales = np.fromiter((scale for _terms, scale in encoded), float, len(encoded))
    return [(-scales, epigraph, 1.0)]


class MaxMinFairnessSession(IncrementalProgramSession):
    """Stateful LAS solver with a persistent epigraph formulation.

    Equivalent to ``build_objective`` on a fresh program, but the epigraph
    rows ``t <= scale_m * throughput(m, X)`` are a
    :class:`~repro.core.session.JobRows` family that encodes each job's terms
    and normalization factor: a row is added, removed or rewritten only when
    its job came, went, or had its terms or factor moved, so unchanged jobs
    cost nothing.
    """

    def __init__(self, policy: MaxMinFairnessPolicy, problem: PolicyProblem) -> None:
        super().__init__(policy, problem, LinearProgram(name=policy.display_name))
        self._epigraph = self._program.add_variable(name="max_min_t", lower=-math.inf)
        self._program.set_objective_from_arrays([self._epigraph.index], [1.0], maximize=True)
        self._rows = JobRows(self._program, upper=0.0)
        self._layout = functools.partial(_epigraph_rows, self._epigraph.index)
        # Held through the policy, not the session: a session clone follows
        # it to its own policy, and no cycle keeps a dropped session alive.
        self._scales = NormalizationCache(functools.partial(_normalized_scale, policy))

    def _prepare(self, problem: PolicyProblem) -> None:
        """Align the epigraph rows with ``problem``: the jobs the normalization refresh returns."""
        self._sync(problem)
        variables = self._variables
        for job_id in self._rows.remove_departed(problem.jobs):
            self._scales.discard(job_id)
        if not self._rows:
            self._scales.clear()
            variables.effective_throughput_blocks()  # primes the terms cache in one pass
        self._rows.write(
            (
                (job_id, (terms, scale))
                for job_id, terms, scale in self._scales.refresh(problem, variables)
            ),
            self._layout,
        )

    def _solve(self, problem: PolicyProblem) -> Allocation:
        self._prepare(problem)
        solution = self._program.solve()
        return self._variables.extract_allocation(solution)
