"""Water-filling machinery for (hierarchical) max-min fairness — Section 4.3.

The water-filling procedure raises every job's weighted normalized effective
throughput at an equal rate until some job *bottlenecks* (its throughput
cannot be increased without decreasing another job's), freezes the
bottlenecked jobs, redistributes their weight according to the per-entity
policy, and repeats.  Two optimization problems are solved per iteration:

1. an LP that maximizes the minimum weighted *increase* in normalized
   throughput across the jobs still in play, subject to nobody dropping below
   the level reached in earlier iterations; and
2. the Appendix A.1 MILP that identifies which jobs are bottlenecked, i.e.
   whose normalized throughput cannot be improved at all without hurting
   another job.

Persistent-program level loop
-----------------------------

Every LP of one water-filling run — and, through
:class:`WaterFillingSession`, of *every* run across a scheduling loop — shares
one validity scaffold: the decision variables, constraint (2) and the
capacity rows built by :class:`~repro.core.policy.AllocationVariables`.  The
implementation therefore keeps a single mutable
:class:`~repro.solver.lp.LinearProgram` alive and drives the level loop with
targeted edits instead of rebuilding per iteration.  The **edit protocol**
(see :class:`_LevelLoopProgram`) gives each job two persistent rows over its
normalized-throughput terms ``n_m = norm_m * throughput(m, X)``:

* a *floor* row ``n_m >= level_m - eps`` — nobody may drop below the level
  already achieved.  Bumping the water level is a bulk right-hand-side edit
  (:meth:`~repro.solver.lp.LinearProgram.set_constraint_bounds_from_arrays`),
  which never dirties the cached constraint matrix;
* a *level* row ``n_m - w_m * t >= level_m`` encoding the epigraph of the
  max-min objective ``t = min_m (n_m - level_m) / w_m`` over the jobs still
  in play.  Freezing a saturated (or zero-weight) job relaxes its row to
  ``-inf`` — again a right-hand-side edit — and a weight change from
  hierarchical redistribution rewrites that job's level row in place (the
  cached throughput terms with the new ``-w_m`` epigraph coefficient; only
  rows whose weight actually moved are touched).

A level iteration is then: one bound sweep, one warm-started re-solve of the
live program, an analytic level bump (``level_m += w_m * t*`` for the jobs in
play — ``t*`` is the LP's unique optimal value, so the loop's trajectory
never depends on which degenerate vertex the solver returned), and a
bottleneck check.  Greedy bottleneck detection reuses the
same program (epigraph pinned to zero, level rows relaxed, one
objective-swap solve per candidate); the Appendix A.1 MILP is solved on a
throwaway canonically-ordered program so its integer branching never depends
on the live program's edit history and never invalidates the warm LP basis.

Type-aggregated runs (see :mod:`repro.core.aggregation`) feed the same loop a
problem whose rows are group representatives with ``group_counts`` set: the
variables hold group *totals*, the baked ``w · n_g`` weights make the
epigraph and the analytic level bumps track per-member levels scaled by group
mass, and every epsilon slack / improvement threshold / big-M constant /
freeze-guard comparison scales by the row's group count.  The loop itself is
unchanged — its iteration count is bounded by the number of active *groups*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.effective_throughput import (
    fastest_reference_throughput,
    normalized_throughput_scale,
)
from repro.core.policy import AllocationVariables
from repro.core.problem import PolicyProblem
from repro.core.session import IncrementalProgramSession
from repro.core.throughput_matrix import ThroughputMatrix
from repro.exceptions import ConfigurationError, InfeasibleError
from repro.solver.lp import LinearExpression, LinearProgram

if TYPE_CHECKING:  # circular at runtime: hierarchical imports this module
    from repro.core.hierarchical import _WaterFillingPolicyBase

__all__ = ["WaterFillingResult", "WaterFillingAllocator", "WaterFillingSession"]

_EPSILON = 1e-4
#: Minimum normalized-throughput gain for a job to count as improvable.
_IMPROVEMENT = 10 * _EPSILON

_Redistribute = Callable[[Mapping[int, float], Set[int]], Dict[int, float]]


@dataclass
class WaterFillingResult:
    """Outcome of the water-filling procedure."""

    allocation: Allocation
    normalized_throughputs: Dict[int, float]
    iterations: int
    bottleneck_order: List[Set[int]] = field(default_factory=list)


def _normalized_upper_bound(
    matrix: ThroughputMatrix, norms: Mapping[int, float], job_id: int, count: int = 1
) -> float:
    """Upper bound on a job's normalized throughput (run 100% on fastest type).

    ``count`` is the aggregation-group size behind the row: an aggregated
    row's variables hold the group *total*, whose ceiling is ``n_g`` members
    each running flat out on the fastest type.
    """
    return count * norms[job_id] * fastest_reference_throughput(matrix, job_id) + 1.0


def _solve_bottleneck_milp(
    problem: PolicyProblem,
    matrix: ThroughputMatrix,
    norms: Mapping[int, float],
    levels: Mapping[int, float],
    candidates: Set[int],
) -> Set[int]:
    """Appendix A.1 MILP: the subset of ``candidates`` that can still improve.

    Always solved on a fresh, canonically-ordered program: MILPs force the
    stateless solver path anyway, so there is no warm state to reuse, and a
    canonical build keeps the (possibly tie-broken) optimal indicator set
    independent of any live program's edit history — which is what lets a
    long-lived session reproduce a from-scratch run bit for bit.

    On a type-aggregated problem every row stands for a group of ``n_g``
    interchangeable jobs and ``levels`` hold group totals, so the epsilon
    slack, the improvement threshold and the big-M constant all scale by
    ``n_g`` (a per-member delta for each of the ``n_g`` members).
    """
    program = LinearProgram(name="water_filling_bottleneck_milp")
    variables = AllocationVariables(problem, matrix, program)
    indicator: Dict[int, "object"] = {}
    objective = LinearExpression()
    for job_id in matrix.job_ids:
        normalized = variables.effective_throughput_expression(job_id) * norms[job_id]
        level = levels.get(job_id, 0.0)
        count = problem.group_count(job_id)
        # No group may drop below its current level.
        program.add_greater_equal(normalized, level - _EPSILON * count)
        if job_id in candidates:
            z = program.add_variable(name=f"z[{job_id}]", lower=0.0, upper=1.0, integer=True)
            indicator[job_id] = z
            big_m = _normalized_upper_bound(matrix, norms, job_id, count)
            # z = 1 => normalized >= level + delta (strictly better), via
            # normalized >= (level + delta) - bigM * (1 - z).
            program.add_greater_equal(
                normalized + z * (-big_m), level + _IMPROVEMENT * count - big_m
            )
            objective = objective + z * 1.0
    program.maximize(objective)
    solution = program.solve()
    return {job_id for job_id, z in indicator.items() if solution.value_of(z) > 0.5}


class _LevelLoopProgram:
    """The persistent water-filling LP over one :class:`AllocationVariables`.

    Owns the epigraph variable ``t`` plus, per job, the floor and level rows
    described in the module docstring, and re-aligns them incrementally
    against new problem snapshots (:meth:`align`).  One :meth:`run` call
    executes the complete level loop of Section 4.3 through right-hand-side
    sweeps and warm re-solves of the single live program.
    """

    def __init__(
        self,
        program: LinearProgram,
        variables: AllocationVariables,
        use_milp_bottleneck_detection: bool = True,
    ) -> None:
        self._program = program
        self._variables = variables
        self._use_milp = use_milp_bottleneck_detection
        self._epigraph = program.add_variable(name="water_level_t", lower=-math.inf)
        self._problem: Optional[PolicyProblem] = None
        #: job id -> constraint handle of the floor / level rows.
        self._floors: Dict[int, int] = {}
        self._level_rows: Dict[int, int] = {}
        #: Identity cache of each job's throughput terms (mirrors the LAS
        #: session: the variables object returns the *same* tuple until one of
        #: the job's matrix rows changes).
        self._terms: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        #: job id -> normalization factor currently encoded in the rows.
        self._norms: Dict[int, float] = {}
        #: job id -> weight currently encoded as the level row's -w_m * t term.
        self._level_weights: Dict[int, float] = {}
        #: Handle arrays aligned with the matrix's job order (rebuilt lazily).
        self._handle_cache: Optional[Tuple[Tuple[int, ...], np.ndarray, np.ndarray]] = None

    # -- structural alignment ---------------------------------------------------------
    def align(self, problem: PolicyProblem) -> None:
        """Re-align the per-job rows with the variables' current snapshot.

        Must run after the owning :class:`AllocationVariables` has been
        synchronised (``update_to``): vanished jobs lose both rows, new jobs
        gain them, and persisting jobs whose cached throughput terms or
        normalization factor moved (estimate refinements, cluster resizes)
        get their coefficients rewritten in place.
        """
        self._problem = problem
        variables = self._variables
        matrix = variables.matrix
        program = self._program
        active = set(matrix.job_ids)
        for job_id in list(self._floors):
            if job_id not in active:
                program.remove_constraint(self._floors.pop(job_id))
                program.remove_constraint(self._level_rows.pop(job_id))
                self._terms.pop(job_id, None)
                self._norms.pop(job_id, None)
                self._level_weights.pop(job_id, None)
                self._handle_cache = None
        if not self._floors:
            self._build_all(problem, matrix)
            return
        for job_id in matrix.job_ids:
            norm = normalized_throughput_scale(
                matrix, problem.cluster_spec, job_id,
                scale_factor=problem.scale_factor(job_id),
            )
            terms = variables.effective_throughput_terms(job_id)
            if job_id not in self._floors:
                self._add_job_rows(job_id, terms, norm)
            elif self._terms.get(job_id) is not terms or self._norms.get(job_id) != norm:
                self._rewrite_job_rows(job_id, terms, norm)

    def _build_all(self, problem: PolicyProblem, matrix: ThroughputMatrix) -> None:
        """From-scratch columnar build: one call per row family, LAS-style."""
        program = self._program
        variables = self._variables
        job_ids, starts, cols, vals = variables.effective_throughput_blocks()
        num_jobs = len(job_ids)
        if num_jobs == 0:
            return
        norms = np.fromiter(
            (
                normalized_throughput_scale(
                    matrix, problem.cluster_spec, job_id,
                    scale_factor=problem.scale_factor(job_id),
                )
                for job_id in job_ids.tolist()
            ),
            dtype=float,
            count=num_jobs,
        )
        counts = np.diff(starts)
        coeffs = vals * np.repeat(norms, counts)
        rows = np.repeat(np.arange(num_jobs, dtype=np.int64), counts)
        floor_handles = program.add_constraints_from_arrays(
            rows, cols, coeffs, -math.inf, math.inf
        )
        # Level rows: the same terms plus the epigraph column (weight 1.0
        # until the first iteration supplies the real weights).
        level_handles = program.add_constraints_from_arrays(
            *variables.rows_with_column(starts, cols, coeffs, self._epigraph.index, -1.0),
            -math.inf,
            math.inf,
        )
        for position, job_id in enumerate(job_ids.tolist()):
            self._floors[job_id] = int(floor_handles[position])
            self._level_rows[job_id] = int(level_handles[position])
            self._terms[job_id] = variables.effective_throughput_terms(job_id)
            self._norms[job_id] = float(norms[position])
            self._level_weights[job_id] = 1.0
        self._handle_cache = None

    def _add_job_rows(
        self, job_id: int, terms: Tuple[np.ndarray, np.ndarray], norm: float
    ) -> None:
        program = self._program
        cols, vals = terms
        coeffs = vals * norm
        self._floors[job_id] = int(
            program.add_constraints_from_arrays(
                np.zeros(len(cols), dtype=np.int64), cols, coeffs, -math.inf, math.inf
            )[0]
        )
        row_cols = np.append(cols, self._epigraph.index)
        row_vals = np.append(coeffs, -1.0)
        self._level_rows[job_id] = int(
            program.add_constraints_from_arrays(
                np.zeros(len(row_cols), dtype=np.int64),
                row_cols,
                row_vals,
                -math.inf,
                math.inf,
            )[0]
        )
        self._terms[job_id] = terms
        self._norms[job_id] = norm
        self._level_weights[job_id] = 1.0
        self._handle_cache = None

    def _rewrite_job_rows(
        self, job_id: int, terms: Tuple[np.ndarray, np.ndarray], norm: float
    ) -> None:
        program = self._program
        cols, vals = terms
        coeffs = vals * norm
        program.set_constraint_coefficients_from_arrays(self._floors[job_id], cols, coeffs)
        program.set_constraint_coefficients_from_arrays(
            self._level_rows[job_id],
            np.append(cols, self._epigraph.index),
            np.append(coeffs, -self._level_weights.get(job_id, 1.0)),
        )
        self._terms[job_id] = terms
        self._norms[job_id] = norm

    def _handles(self) -> Tuple[Tuple[int, ...], np.ndarray, np.ndarray]:
        """``(job order, floor handles, level-row handles)`` for bulk edits."""
        job_ids = self._variables.matrix.job_ids
        if self._handle_cache is None or self._handle_cache[0] != job_ids:
            floors = np.fromiter(
                (self._floors[job_id] for job_id in job_ids), np.int64, count=len(job_ids)
            )
            level_rows = np.fromiter(
                (self._level_rows[job_id] for job_id in job_ids),
                np.int64,
                count=len(job_ids),
            )
            self._handle_cache = (job_ids, floors, level_rows)
        return self._handle_cache

    def _group_count(self, job_id: int) -> int:
        """Aggregation-group size behind a row (1 on per-job problems).

        Levels track group *totals* on aggregated problems, so every epsilon
        slack, improvement threshold and freeze-guard comparison scales by
        this count (see :func:`_solve_bottleneck_milp`).
        """
        problem = self._problem
        return 1 if problem is None else problem.group_count(job_id)

    # -- per-iteration edits ----------------------------------------------------------
    def _begin_iteration(
        self,
        weights: Mapping[int, float],
        levels: Mapping[int, float],
        frozen: Set[int],
    ) -> None:
        """Point the live program at one level LP: bound sweeps + weight edits."""
        program = self._program
        job_ids, floor_handles, level_handles = self._handles()
        floor_lowers = np.fromiter(
            (
                levels.get(job_id, 0.0) - _EPSILON * self._group_count(job_id)
                for job_id in job_ids
            ),
            dtype=float,
            count=len(job_ids),
        )
        program.set_constraint_bounds_from_arrays(floor_handles, lower=floor_lowers)
        level_lowers = np.empty(len(job_ids))
        for position, job_id in enumerate(job_ids):
            weight = weights.get(job_id, 0.0)
            in_play = job_id not in frozen and weight > 0
            if in_play and self._level_weights.get(job_id) != weight:
                cols, vals = self._terms[job_id]
                program.set_constraint_coefficients_from_arrays(
                    self._level_rows[job_id],
                    np.append(cols, self._epigraph.index),
                    np.append(vals * self._norms[job_id], -weight),
                )
                self._level_weights[job_id] = weight
            level_lowers[position] = levels.get(job_id, 0.0) if in_play else -math.inf
        program.set_constraint_bounds_from_arrays(level_handles, lower=level_lowers)
        program.set_variable_bounds(self._epigraph, -math.inf, None)
        program.maximize({self._epigraph.index: 1.0})

    def _solve_level(self) -> Tuple[Allocation, float]:
        """Solve the current level LP: ``(allocation, t*)``.

        ``t*`` — the optimal minimum weighted increase — is the LP's optimal
        *value* and therefore unique, unlike the allocation vertex achieving
        it.  The loop raises levels analytically (``level += w_m * t*``)
        rather than reading them off the vertex, which keeps the whole
        trajectory (levels, freeze order, weight redistribution) a
        deterministic function of the problem snapshot: a warm-started
        session and a cold rebuild walk identical level loops even when
        degenerate optima let their solvers pick different vertices.
        """
        solution = self._program.solve()
        return (
            self._variables.extract_allocation(solution),
            max(0.0, float(solution.objective_value)),
        )

    # -- bottleneck detection ---------------------------------------------------------
    def _find_improvable(
        self, levels: Mapping[int, float], candidates: Set[int]
    ) -> Set[int]:
        """The subset of ``candidates`` whose normalized throughput can still rise."""
        if not candidates:
            return set()
        if self._use_milp:
            try:
                return _solve_bottleneck_milp(
                    self._problem, self._variables.matrix, self._norms, levels, candidates
                )
            except InfeasibleError:
                pass
        return self._find_improvable_greedy(levels, candidates)

    def _find_improvable_greedy(
        self, levels: Mapping[int, float], candidates: Set[int]
    ) -> Set[int]:
        """Per-candidate headroom probes on the live program.

        Detection state: the epigraph variable is pinned to zero, the level
        rows are relaxed, and the floors are swept to the just-updated levels
        — leaving exactly "nobody drops below its level".  Each candidate is
        then one objective swap (maximize its normalized throughput) plus a
        warm re-solve.
        """
        program = self._program
        job_ids, floor_handles, level_handles = self._handles()
        program.fix_variable(self._epigraph, 0.0)
        program.set_constraint_bounds_from_arrays(level_handles, lower=-math.inf)
        floor_lowers = np.fromiter(
            (
                levels.get(job_id, 0.0) - _EPSILON * self._group_count(job_id)
                for job_id in job_ids
            ),
            dtype=float,
            count=len(job_ids),
        )
        program.set_constraint_bounds_from_arrays(floor_handles, lower=floor_lowers)
        improvable: Set[int] = set()
        try:
            # Sorted: each probe re-solves the warm program, so probe order is
            # part of the deterministic solve trajectory.
            for job_id in sorted(candidates):
                cols, vals = self._terms[job_id]
                program.set_objective_from_arrays(
                    cols, vals * self._norms[job_id], maximize=True
                )
                try:
                    solution = program.solve()
                except InfeasibleError:
                    continue
                threshold = levels.get(job_id, 0.0) + _IMPROVEMENT * self._group_count(job_id)
                if solution.objective_value > threshold:
                    improvable.add(job_id)
        finally:
            program.set_variable_bounds(self._epigraph, -math.inf, None)
        return improvable

    # -- the level loop ---------------------------------------------------------------
    def run(
        self,
        initial_weights: Mapping[int, float],
        redistribute: Optional[_Redistribute] = None,
        max_iterations: Optional[int] = None,
    ) -> WaterFillingResult:
        """Execute the Section 4.3 level loop on the live program."""
        if self._problem is None:
            raise ConfigurationError("level-loop program was never aligned to a problem")
        job_ids = self._variables.matrix.job_ids
        limit = max_iterations if max_iterations is not None else len(job_ids) + 2
        weights: Dict[int, float] = {
            job_id: float(initial_weights.get(job_id, 0.0)) for job_id in job_ids
        }
        if all(weight <= 0 for weight in weights.values()):
            raise ConfigurationError("water filling requires at least one positive job weight")

        levels: Dict[int, float] = {job_id: 0.0 for job_id in job_ids}
        frozen: Set[int] = set()
        bottleneck_order: List[Set[int]] = []
        allocation: Optional[Allocation] = None

        iterations = 0
        while iterations < limit:
            iterations += 1
            active = {
                job_id
                for job_id in job_ids
                if job_id not in frozen and weights.get(job_id, 0.0) > 0
            }
            if not active:
                break
            self._begin_iteration(weights, levels, frozen)
            allocation, t_star = self._solve_level()
            for job_id in sorted(active):
                levels[job_id] = levels[job_id] + weights[job_id] * t_star

            improvable = self._find_improvable(levels, active)
            newly_frozen = active - improvable
            if not newly_frozen:
                # Guard against cycling: freeze the lowest-level active group
                # (compared per member so group size does not bias the pick).
                newly_frozen = {
                    min(active, key=lambda job_id: levels[job_id] / self._group_count(job_id))
                }
            frozen.update(newly_frozen)
            bottleneck_order.append(set(newly_frozen))

            if redistribute is not None:
                weights = dict(redistribute(weights, frozen))
            if len(frozen) == len(job_ids):
                break

        if allocation is None:
            raise InfeasibleError("water filling produced no allocation")
        return WaterFillingResult(
            allocation=allocation,
            normalized_throughputs=dict(levels),
            iterations=iterations,
            bottleneck_order=bottleneck_order,
        )


class WaterFillingAllocator:
    """One-shot water filling over a policy problem given per-job weight assignments.

    A thin wrapper that builds a fresh :class:`_LevelLoopProgram` and runs it
    once; :class:`WaterFillingSession` keeps the same program alive across
    solves.
    """

    def __init__(
        self,
        problem: PolicyProblem,
        matrix: ThroughputMatrix,
        use_milp_bottleneck_detection: bool = True,
        max_iterations: Optional[int] = None,
    ) -> None:
        self._problem = problem
        self._matrix = matrix
        self._use_milp = use_milp_bottleneck_detection
        self._max_iterations = (
            max_iterations if max_iterations is not None else problem.num_jobs + 2
        )

    def run(
        self,
        initial_weights: Mapping[int, float],
        redistribute: Optional[_Redistribute] = None,
    ) -> WaterFillingResult:
        """Execute water filling.

        Args:
            initial_weights: Weight ``w_m^job`` for each job (zero-weight jobs
                are not optimized until redistribution hands them weight).
            redistribute: Called after each iteration with the current weights
                and the set of all bottlenecked jobs; returns the new weight
                assignment.  Defaults to keeping weights fixed, which is the
                single-level behaviour.
        """
        program = LinearProgram(name="water_filling")
        variables = AllocationVariables(self._problem, self._matrix, program)
        loop = _LevelLoopProgram(
            program, variables, use_milp_bottleneck_detection=self._use_milp
        )
        loop.align(self._problem)
        return loop.run(
            initial_weights, redistribute=redistribute, max_iterations=self._max_iterations
        )


class WaterFillingSession(IncrementalProgramSession):
    """Stateful water-filling solver: one live level-loop program across rounds.

    The decision variables, validity constraints and the per-job floor/level
    rows persist; a churn event becomes the usual
    :class:`~repro.core.policy.AllocationVariables` delta sync plus an
    :meth:`_LevelLoopProgram.align` diff, and every level iteration re-solves
    the warm program instead of building a new one.  The owning policy
    supplies the weight semantics through
    ``water_filling_weights(problem)`` / ``water_filling_redistribution(problem)``
    (single-level fairness keeps weights fixed; the hierarchical policy
    splits entity weights and re-splits on every freeze).
    """

    def __init__(self, policy: "_WaterFillingPolicyBase", problem: PolicyProblem) -> None:
        super().__init__(policy, problem, LinearProgram(name=policy.display_name))
        self._loop = _LevelLoopProgram(
            self._program,
            self._variables,
            use_milp_bottleneck_detection=policy.use_milp_bottleneck_detection,
        )
        self._last_result: Optional[WaterFillingResult] = None

    @property
    def last_result(self) -> Optional[WaterFillingResult]:
        """Diagnostics of the most recent solve (levels, bottleneck order)."""
        return self._last_result

    def _prepare(self, problem: PolicyProblem) -> None:
        self._sync(problem)
        self._loop.align(problem)

    def _solve(self, problem: PolicyProblem) -> Allocation:
        self._prepare(problem)
        result = self._loop.run(
            initial_weights=self._policy.water_filling_weights(problem),
            redistribute=self._policy.water_filling_redistribution(problem),
            max_iterations=problem.num_jobs + 2,
        )
        self._last_result = result
        return result.allocation
