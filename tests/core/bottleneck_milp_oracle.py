"""The Appendix A.1 bottleneck MILP in its textbook big-M form — the test oracle.

Until the water-filling loop moved to the decisive LP relaxation
(:mod:`repro.core.water_filling`), this was ``_solve_bottleneck_milp`` in
``src/``: a throwaway, canonically-ordered program with one binary indicator
per candidate and
``n_m >= (L_m + delta * n_g) - bigM * (1 - z_m)``, solved through
``scipy.optimize.milp``.  It stays here, unchanged, as the independent answer
the relaxation is checked against.
"""

from __future__ import annotations

from typing import Dict, Mapping, Set

from repro.core.effective_throughput import fastest_reference_throughput
from repro.core.policy import AllocationVariables
from repro.core.problem import PolicyProblem
from repro.core.throughput_matrix import ThroughputMatrix
from repro.core.water_filling import _EPSILON, _IMPROVEMENT
from repro.solver.lp import LinearProgram, Variable, summed_terms
from tests.lp_rows import add_row, set_objective


def _normalized_upper_bound(
    matrix: ThroughputMatrix, norms: Mapping[int, float], job_id: int, count: int = 1
) -> float:
    """Upper bound on a row's normalized throughput: ``count`` members flat out."""
    return count * norms[job_id] * fastest_reference_throughput(matrix, job_id) + 1.0


def solve_bottleneck_milp(
    problem: PolicyProblem,
    matrix: ThroughputMatrix,
    norms: Mapping[int, float],
    levels: Mapping[int, float],
    candidates: Set[int],
) -> Set[int]:
    """A maximum subset of ``candidates`` that can all gain ``delta`` at once.

    Epsilon slack, improvement threshold and big-M all scale by the row's
    aggregation-group size ``n_g``.  Raises
    :class:`~repro.exceptions.InfeasibleError` when the floors alone are
    infeasible.
    """
    program = LinearProgram(name="water_filling_bottleneck_milp")
    variables = AllocationVariables(problem, matrix, program)
    indicator: Dict[int, Variable] = {}
    for job_id in matrix.job_ids:
        cols, vals = summed_terms(*variables.effective_throughput_terms(job_id))
        normalized = dict(zip(cols.tolist(), (vals * norms[job_id]).tolist()))
        level = levels.get(job_id, 0.0)
        count = problem.group_count(job_id)
        add_row(program, normalized, lower=level - _EPSILON * count)
        if job_id in candidates:
            z = program.add_variable(name=f"z[{job_id}]", lower=0.0, upper=1.0, integer=True)
            indicator[job_id] = z
            big_m = _normalized_upper_bound(matrix, norms, job_id, count)
            add_row(
                program,
                {**normalized, z.index: -big_m},
                lower=level + _IMPROVEMENT * count - big_m,
            )
    set_objective(program, {z.index: 1.0 for z in indicator.values()})
    solution = program.solve()
    return {job_id for job_id, z in indicator.items() if solution.values[z.index] > 0.5}
