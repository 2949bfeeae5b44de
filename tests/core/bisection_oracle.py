"""Bisection over a feasibility LP — the test oracle of the minimum-scalar policies.

Until makespan and finish-time fairness moved to the certified Newton
iteration (:class:`repro.core.session.ThroughputRequirementSession`), this was
how ``src/`` solved them: :func:`bisect_min_feasible` (then
``repro.solver.bisection``) over a wide bracket, one feasibility LP per
candidate.  It stays here as the independent answer the certificates are
checked against: :func:`bisected_optimum` builds a throwaway program per
problem, writes each candidate into the right-hand sides with the textbook
formulas (``num_steps_m / M``, ``num_steps_m / (rho * D_m - t_m)`` with
``D_m`` from the scalar :func:`isolated_reference_throughput`), and shares no
code with the session beyond the validity scaffold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Generic, Optional, TypeVar

import numpy as np

from repro.core.effective_throughput import isolated_reference_throughput
from repro.core.policy import AllocationVariables, Policy
from repro.core.problem import PolicyProblem
from repro.exceptions import ConfigurationError, InfeasibleError
from repro.solver.lp import LinearProgram

T = TypeVar("T")


@dataclass
class BisectionResult(Generic[T]):
    """Outcome of :func:`bisect_min_feasible`."""

    value: float
    witness: T
    iterations: int


def bisect_min_feasible(
    predicate: Callable[[float], Optional[T]],
    lower: float,
    upper: float,
    relative_tolerance: float = 1e-3,
    max_iterations: int = 60,
) -> BisectionResult[T]:
    """Find (approximately) the smallest value in ``[lower, upper]`` that is feasible.

    Args:
        predicate: Called with a candidate value; returns a witness object if
            the candidate is feasible and ``None`` otherwise.  Feasibility must
            be monotone: if ``v`` is feasible then every ``v' > v`` is too.
        lower: Lower end of the search interval (may be infeasible).
        upper: Upper end of the search interval; must be feasible.
        relative_tolerance: Stop when the bracket has shrunk below this
            relative width.
        max_iterations: Hard cap on bisection steps.

    Returns:
        The smallest feasible value found and the witness the predicate
        returned for it.

    Raises:
        InfeasibleError: If ``upper`` itself is infeasible.
        ConfigurationError: On an invalid interval or tolerance.
    """
    if not (lower >= 0 and upper > lower):
        raise ConfigurationError(f"invalid bisection interval [{lower}, {upper}]")
    if relative_tolerance <= 0:
        raise ConfigurationError("relative_tolerance must be positive")

    witness = predicate(upper)
    if witness is None:
        raise InfeasibleError(
            f"bisection upper bound {upper:g} is infeasible; no feasible value in range"
        )
    best_value = upper
    best_witness = witness

    feasible_lower = predicate(lower)
    if feasible_lower is not None:
        return BisectionResult(value=lower, witness=feasible_lower, iterations=1)

    low, high = lower, upper
    iterations = 1
    while iterations < max_iterations and (high - low) > relative_tolerance * max(high, 1e-12):
        middle = 0.5 * (low + high)
        iterations += 1
        candidate = predicate(middle)
        if candidate is not None:
            best_value, best_witness = middle, candidate
            high = middle
        else:
            low = middle
    return BisectionResult(value=best_value, witness=best_witness, iterations=iterations)


def required_throughputs(
    base: str, policy: Policy, problem: PolicyProblem, value: float
) -> Optional[Dict[int, float]]:
    """Per-job minimum throughputs at makespan / rho ``value``; ``None`` when unreachable.

    Written from the paper one job at a time.  A job with steps left whose
    time budget ``rho * D_m - t_m`` is not positive cannot achieve ``rho``
    under any allocation; a job with none left has ``rho_m = t_m / D_m``
    whatever it is given, and requires nothing.
    """
    if base == "makespan":
        return {job_id: problem.remaining_steps(job_id) / value for job_id in problem.job_ids}
    matrix = policy.effective_matrix(problem)
    required = {}
    for job_id in problem.job_ids:
        isolated = isolated_reference_throughput(
            matrix,
            problem.cluster_spec,
            job_id,
            num_jobs=problem.num_jobs,
            scale_factor=problem.scale_factor(job_id),
        )
        steps = problem.remaining_steps(job_id)
        budget = value * (problem.elapsed(job_id) + steps / isolated) - problem.elapsed(job_id)
        if budget < 0 or (steps > 0 and budget <= 0):
            return None
        required[job_id] = steps / budget if steps > 0 else 0.0
    return required


def bisected_optimum(
    base: str, policy: Policy, problem: PolicyProblem, relative_tolerance: float = 1e-6
) -> float:
    """The smallest achievable makespan / max-rho, to ``relative_tolerance``, by bisection.

    ``base`` is ``"makespan"`` or ``"finish_time_fairness"``.  Finish-time
    fairness searches ``[1e-3, 64]`` as ``src/`` used to; makespan brackets
    the optimum between two consecutive powers of two.
    """
    program = LinearProgram(name=f"{base}-oracle")
    matrix = policy.effective_matrix(problem)
    variables = AllocationVariables(problem, matrix, program)
    terms = [variables.effective_throughput_terms(job_id) for job_id in problem.job_ids]
    rows = program.add_constraints_from_arrays(
        np.repeat(np.arange(len(terms)), [len(cols) for cols, _vals in terms]),
        np.concatenate([cols for cols, _vals in terms]),
        np.concatenate([vals for _cols, vals in terms]),
        np.zeros(len(terms)),
        math.inf,
    )

    def feasible(value: float) -> Optional[bool]:
        required = required_throughputs(base, policy, problem, value)
        if required is None:
            return None
        program.set_constraint_bounds_from_arrays(
            rows, lower=[required[job_id] for job_id in problem.job_ids]
        )
        try:
            program.solve()
        except InfeasibleError:
            return None
        return True

    if base == "makespan":
        upper = 1.0
        while feasible(upper) is None:
            upper *= 2.0
            if not math.isfinite(upper):
                raise InfeasibleError("no finite makespan is achievable")
        lower = 0.5 * upper
        while feasible(lower) is not None:
            lower, upper = 0.5 * lower, lower
    else:
        lower, upper = 1e-3, 64.0
    return bisect_min_feasible(
        feasible, lower=lower, upper=upper, relative_tolerance=relative_tolerance
    ).value
