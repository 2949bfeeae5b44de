"""Cost-aware policies for elastic public-cloud deployments — Section 4.2.

``MinCostPolicy`` maximizes the ratio of total (normalized) effective
throughput to total dollar cost, i.e. it prefers the cheapest devices that
still make progress.  ``MinCostWithSLOsPolicy`` adds per-job deadline
constraints ``throughput(m, X) >= num_steps_m / SLO_m`` so that jobs with
tight SLOs are moved onto faster (more expensive) accelerators.

Both are linear-fractional programs, solved by Dinkelbach's method in
:mod:`repro.solver.fractional`: a few warm re-solves of one ordinary LP in
which only the objective changes.  Their sessions keep the program's
variables and validity constraints alive across allocation recomputations,
rebuilding only the ratio objective (and the minimum-progress / SLO rows)
each round; the Dinkelbach iteration starts from the previous round's ratio.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set

import numpy as np

from repro.core.allocation import Allocation
from repro.core.effective_throughput import fastest_reference_throughput
from repro.core.policy import AllocationVariables, Policy
from repro.core.problem import PolicyProblem
from repro.core.session import OBJECTIVE_TAG, IncrementalProgramSession, PolicySession
from repro.core.throughput_matrix import ThroughputMatrix
from repro.exceptions import InfeasibleError
from repro.solver.fractional import FractionalProgram

__all__ = ["MinCostPolicy", "MinCostWithSLOsPolicy", "MinCostSession", "MinCostWithSLOsSession"]


class MinCostPolicy(Policy):
    """Maximize throughput per dollar (equivalently, minimize cost per unit work)."""

    name = "min_cost"

    def __init__(
        self,
        heterogeneity_agnostic: bool = False,
        space_sharing: bool = False,
        normalize: bool = True,
        minimum_normalized_throughput: float = 1e-3,
    ) -> None:
        super().__init__(heterogeneity_agnostic=heterogeneity_agnostic, space_sharing=space_sharing)
        self._normalize = normalize
        self._minimum_normalized_throughput = minimum_normalized_throughput

    # -- shared LP construction --------------------------------------------------
    def _normalizer(self, matrix: ThroughputMatrix, job_id: int) -> float:
        if not self._normalize:
            return 1.0
        fastest = fastest_reference_throughput(matrix, job_id)
        return 1.0 / fastest if fastest > 0 else 0.0

    def _add_objective(
        self, variables: AllocationVariables, program: FractionalProgram
    ) -> None:
        """Add the ratio objective and minimum-progress constraints."""
        matrix = variables.matrix
        job_ids, starts, cols, vals = variables.effective_throughput_blocks()
        scales = np.fromiter(
            (self._normalizer(matrix, job_id) for job_id in job_ids.tolist()),
            dtype=float,
            count=len(job_ids),
        )
        counts = np.diff(starts)
        numerator = (cols, vals * np.repeat(scales, counts), 0.0)
        if self._minimum_normalized_throughput > 0:
            # Every job must make at least minimal progress, otherwise the
            # cheapest "allocation" is to run nothing at all.  On a
            # type-aggregated problem the row carries the group-total
            # throughput, so the floor scales with the group size.
            group_sizes = np.fromiter(
                (variables.job_count(job_id) for job_id in job_ids.tolist()),
                dtype=float,
                count=len(job_ids),
            )
            eligible = scales > 0
            if eligible.all():
                seg_rows = np.repeat(np.arange(len(job_ids), dtype=np.int64), counts)
                seg_cols, seg_vals = cols, vals
                bounds = group_sizes * self._minimum_normalized_throughput / scales
            else:
                selected = np.flatnonzero(eligible)
                seg_rows = np.repeat(
                    np.arange(len(selected), dtype=np.int64), counts[selected]
                )
                seg_cols = np.concatenate(
                    [cols[starts[k] : starts[k + 1]] for k in selected]
                ) if len(selected) else np.empty(0, dtype=np.int64)
                seg_vals = np.concatenate(
                    [vals[starts[k] : starts[k + 1]] for k in selected]
                ) if len(selected) else np.empty(0)
                bounds = (
                    group_sizes[selected]
                    * self._minimum_normalized_throughput
                    / scales[selected]
                )
            if len(bounds):
                program.add_constraints_from_arrays(
                    seg_rows, seg_cols, seg_vals, bounds, math.inf
                )
        program.set_ratio_objective(numerator, (*variables.cost_terms(), 1e-9))

    def _make_session(self, problem: PolicyProblem) -> PolicySession:
        return MinCostSession(self, problem)

    def compute_allocation(self, problem: PolicyProblem) -> Allocation:
        return self.session(problem).solve(problem)


class MinCostWithSLOsPolicy(MinCostPolicy):
    """Minimize cost subject to per-job SLO deadlines.

    Jobs without an SLO only contribute to the cost/throughput trade-off.
    Jobs whose SLO has become impossible to meet (even running flat out on the
    fastest accelerator the remaining time is insufficient) have their
    constraint dropped, matching the practical behaviour described in the
    paper (the scheduler cannot turn back time).
    """

    name = "min_cost_slo"

    def _make_session(self, problem: PolicyProblem) -> PolicySession:
        return MinCostWithSLOsSession(self, problem)

    def _required_throughput(self, problem: PolicyProblem, job_id: int) -> Optional[float]:
        job = problem.job(job_id)
        if job.slo_seconds is None:
            return None
        remaining_time = job.slo_seconds - problem.elapsed(job_id)
        if remaining_time <= 0:
            return None
        return problem.remaining_steps(job_id) / remaining_time

    def _achievable_slo_jobs(self, problem: PolicyProblem, matrix: ThroughputMatrix) -> Set[int]:
        achievable: Set[int] = set()
        for job_id in problem.job_ids:
            required = self._required_throughput(problem, job_id)
            if required is None:
                continue
            if fastest_reference_throughput(matrix, job_id) >= required:
                achievable.add(job_id)
        return achievable


class MinCostSession(IncrementalProgramSession):
    """Stateful min-cost solver over a live :class:`FractionalProgram`."""

    def __init__(self, policy: MinCostPolicy, problem: PolicyProblem) -> None:
        super().__init__(policy, problem, FractionalProgram(name=policy.display_name))

    def _prepare(self, problem: PolicyProblem) -> None:
        self._sync(problem)
        program = self._program
        program.clear_tag(OBJECTIVE_TAG)
        program.begin_tag(OBJECTIVE_TAG)
        try:
            self._policy._add_objective(self._variables, program)
        finally:
            program.end_tag()

    def _solve(self, problem: PolicyProblem) -> Allocation:
        self._prepare(problem)
        solution = self._program.solve()
        return self._variables.extract_allocation(solution)


class MinCostWithSLOsSession(IncrementalProgramSession):
    """Min-cost-with-SLOs solver: retry loop dropping unachievable SLOs."""

    def __init__(self, policy: MinCostWithSLOsPolicy, problem: PolicyProblem) -> None:
        super().__init__(policy, problem, FractionalProgram(name=policy.display_name))

    def _solve(self, problem: PolicyProblem) -> Allocation:
        policy = self._policy
        self._sync(problem)
        program = self._program
        variables = self._variables
        achievable = policy._achievable_slo_jobs(problem, variables.matrix)
        dropped: Set[int] = set()
        while True:
            program.clear_tag(OBJECTIVE_TAG)
            program.begin_tag(OBJECTIVE_TAG)
            try:
                policy._add_objective(variables, program)
                self._add_slo_rows(problem, sorted(achievable - dropped))
            finally:
                program.end_tag()
            try:
                solution = program.solve()
            except InfeasibleError:
                # Drop the tightest remaining SLO and retry; an empty set of
                # SLO constraints always yields a feasible program.
                remaining = sorted(
                    achievable - dropped,
                    key=lambda job_id: policy._required_throughput(problem, job_id) or 0.0,
                    reverse=True,
                )
                if not remaining:
                    raise
                dropped.add(remaining[0])
                continue
            return variables.extract_allocation(solution)

    def _add_slo_rows(self, problem: PolicyProblem, job_ids: List[int]) -> None:
        """``throughput(m, X) >= required_m`` for each of ``job_ids`` that still has an SLO."""
        required: Dict[int, float] = {}
        for job_id in job_ids:
            value = self._policy._required_throughput(problem, job_id)
            if value is not None:
                required[job_id] = value
        if not required:
            return
        terms = [self._variables.effective_throughput_terms(job_id) for job_id in required]
        self._program.add_constraints_from_arrays(
            np.repeat(np.arange(len(terms)), [len(cols) for cols, _vals in terms]),
            np.concatenate([cols for cols, _vals in terms]),
            np.concatenate([vals for _cols, vals in terms]),
            np.fromiter(required.values(), dtype=float, count=len(required)),
            math.inf,
        )
