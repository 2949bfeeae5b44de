"""Water-filling machinery for (hierarchical) max-min fairness — Section 4.3.

The water-filling procedure raises every job's weighted normalized effective
throughput at an equal rate until some job *bottlenecks* (its throughput
cannot be increased without decreasing another job's), freezes the
bottlenecked jobs, redistributes their weight according to the per-entity
policy, and repeats.  Two optimization problems are solved per iteration
(the second only while more than one job is in play, see below):

1. an LP that maximizes the minimum weighted *increase* in normalized
   throughput across the jobs still in play, subject to nobody dropping below
   the level reached in earlier iterations; and
2. the Appendix A.1 problem that identifies which jobs are bottlenecked, i.e.
   whose normalized throughput cannot be improved at all without hurting
   another job: maximize ``sum_m z_m`` over binary ``z`` subject to nobody
   dropping below its level and ``z_m = 1`` only if job ``m`` gains at least
   ``delta``.  It is written in its tight form (no big-M)

       ``n_m >= (L_m - eps * n_g) + (delta + eps) * n_g * z_m``

   which has the same feasible set for binary ``z``, and it is solved as an
   **LP** over ``0 <= z <= 1``.  *Decisive-LP rule:* let ``S`` be the jobs
   with ``z_m >= 1 - tol`` and ``F`` the sum of the other (fractional)
   ``z_m``; if ``F < 1`` then ``S`` is an exact MILP optimum.  Proof: the
   MILP optimum is an integer no larger than the LP optimum ``<= |S| + F <
   |S| + 1``, so it is at most ``|S|``, and the LP's own allocation with
   ``z`` rounded to the indicator of ``S`` is MILP-feasible (a row only
   loosens when its ``z_m`` drops to 0) and attains ``|S|``.  Only a
   non-decisive LP (``F >= 1``) re-solves the same rows with ``z`` integer,
   and the loop counts those fallbacks
   (:attr:`WaterFillingResult.milp_fallbacks`).  The optimum *set* is not
   unique when interchangeable jobs tie (the others' ``eps`` slack can fund a
   ``delta`` for any one of them): the LP vertex picks one as the MILP's
   branching used to, and the level profile is the same either way up to
   ``delta``.

   With a single job in play the second problem is not solved at all: the
   level LP has just maximized that job alone, under the same floors the
   detection keeps for everybody else, so its row admits ``z_m <= eps /
   (delta + eps)`` (about 0.09) at most; the relaxation is then decisive at
   the empty set whatever its vertex, and it cannot be infeasible.  The job
   freezes without an LP (:meth:`_LevelLoopProgram.run`).

Persistent-program level loop
-----------------------------

Every LP of one water-filling run — and, through
:class:`WaterFillingSession`, of *every* run across a scheduling loop — shares
one validity scaffold: the decision variables, constraint (2) and the
capacity rows built by :class:`~repro.core.policy.AllocationVariables`.  The
implementation therefore keeps one mutable
:class:`~repro.solver.lp.LinearProgram` per kind of problem alive — the level
program described here, the detection program described below — and drives
the level loop with targeted edits; nothing is built per iteration.  The
**edit protocol** (see :class:`_LevelLoopProgram`) gives each job two
persistent rows over its normalized-throughput terms
``n_m = norm_m * throughput(m, X)``:

* a *floor* row ``n_m >= level_m - eps`` — nobody may drop below the level
  already achieved.  Bumping the water level is a bulk right-hand-side edit
  (:meth:`~repro.solver.lp.LinearProgram.set_constraint_bounds_from_arrays`),
  which never dirties the cached constraint matrix;
* a *level* row ``n_m - w_m * t >= level_m`` encoding the epigraph of the
  max-min objective ``t = min_m (n_m - level_m) / w_m`` over the jobs still
  in play.  Freezing a saturated (or zero-weight) job relaxes its row to
  ``-inf`` — again a right-hand-side edit — and a weight change from
  hierarchical redistribution is a one-column edit of the epigraph column
  (:meth:`~repro.solver.lp.LinearProgram.set_column_coefficients_from_arrays`):
  only the ``-w_m`` coefficients of the rows whose weight actually moved are
  written, and the rest of each row is left as it is.  The LP layer logs
  it like any row rewrite, so the live model receives its coefficients in
  the order rows were first edited, after the capacity rows an event
  edited before them.

A level iteration is then: one bound sweep, one warm-started re-solve of the
live program, an analytic level bump (``level_m += w_m * t*`` for the jobs in
play — ``t*`` is the LP's unique optimal value, so the loop's trajectory
never depends on which degenerate vertex the solver returned), and a
bottleneck check.  The loop keeps its state — levels, weights, the in-play
mask — in arrays in the matrix's job order, and each
:meth:`_LevelLoopProgram.align` looks up the rows' bound slots once, so the
sweeps are array writes.

Bottleneck detection is solved on a **second persistent program**
(:class:`_DetectionProgram`, owned by the level loop): per job one row
``n_m - (delta + eps) * n_g * z_m >= L_m - eps * n_g`` and one column
``z_m`` over an :class:`~repro.core.policy.AllocationVariables` of its own,
moved to every new snapshot by the same ``update_to`` diff the level program
gets; a detection is two bound sweeps — row lower bounds to ``L - eps *
n_g``, ``z`` upper bounds to the in-play mask — plus one warm solve.  Both
programs' per-job rows are :class:`~repro.core.session.JobRows` families: a
job's floor and level rows encode its terms and norm, its detection row
(and ``z`` column) its terms, norm and group count, and an event removes the
departed jobs' rows, adds the new jobs' and rewrites those whose encoding
moved — one call each, over the jobs the normalization refresh returns (for
the detection: those its own update touched or the level program re-normed).
What is a requirement, not a style choice, is
that the programs are *separate*: a detection solved on the level program
moves that program's basis, and the next level LP then starts from a vertex
no level LP left.  This way the level program's solve sequence consists of
level LPs only and the detection program's of detection LPs only.  Both are
*sequences*: the LP layer carries the basis across the row edits between two
runs (:class:`~repro.solver.lp._HighsBackend`), so a long-lived session's
first level LP and first detection start from the previous run's last
vertices where a from-scratch run starts cold.  The level profile is the same
either way (:meth:`_LevelLoopProgram._solve_level`); the vertex of the last
iteration, which becomes the allocation, and the pick among tying jobs need
not be.  Measured on the end-to-end benchmark's hierarchical workload (28
jobs, 43 re-allocations, 220 iterations at seed 7): the 190 iterations with
more than one job in play solve a detection, 189 of which enter HiGHS with a
valid basis and cost 4 simplex iterations in the median, 6.2 in the mean —
the saving over a fresh program per detection is construction (a
``LinearProgram``, its variables, a HiGHS instance and a ``passModel``, 190
times), not pivots.  A failed solve drops that program's live model
(:meth:`~repro.solver.lp.LinearProgram.solve`), and since every sweep
rewrites every bound it owns, the next run on the same session starts from a
full model pass and nothing of the aborted one.

Type-aggregated runs (see :mod:`repro.core.aggregation`) feed the same loop a
problem whose rows are group representatives with ``group_counts`` set: the
variables hold group *totals*, the baked ``w · n_g`` weights make the
epigraph and the analytic level bumps track per-member levels scaled by group
mass, and every epsilon slack / improvement threshold / indicator
coefficient / freeze-guard comparison scales by the row's group count.  The
loop itself is unchanged — its iteration count is bounded by the number of
active *groups*.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.effective_throughput import normalized_throughput_scale
from repro.core.policy import AllocationVariables
from repro.core.problem import PolicyProblem
from repro.core.session import (
    Encoding,
    IncrementalProgramSession,
    JobRows,
    NormalizationCache,
    RowKind,
)
from repro.core.throughput_matrix import ThroughputMatrix
from repro.exceptions import ConfigurationError, InfeasibleError
from repro.solver.lp import LinearProgram, Solution

if TYPE_CHECKING:  # circular at runtime: hierarchical imports this module
    from repro.core.hierarchical import _WaterFillingPolicyBase

__all__ = ["WaterFillingResult", "WaterFillingAllocator", "WaterFillingSession"]

_EPSILON = 1e-4
#: Minimum normalized-throughput gain for a job to count as improvable.
_IMPROVEMENT = 10 * _EPSILON
#: A relaxed indicator at least this close to 1 counts as set; the fractional
#: rest must sum below ``1 - _Z_TOLERANCE`` for the relaxation to be decisive.
_Z_TOLERANCE = 1e-6

_Redistribute = Callable[[Mapping[int, float], Set[int]], Dict[int, float]]


@dataclass
class WaterFillingResult:
    """Outcome of the water-filling procedure.

    ``detection_solves`` counts bottleneck detection LPs (one per iteration
    with more than one job in play; a lone job freezes without one),
    ``milp_fallbacks`` those whose LP relaxation was not decisive and were
    re-solved with integer indicators, and ``infeasible_detections`` those
    the solver reported infeasible — each of which froze every job still in
    play (an empty improvable set) instead of raising.
    """

    allocation: Allocation
    normalized_throughputs: Dict[int, float]
    iterations: int
    bottleneck_order: List[Set[int]] = field(default_factory=list)
    detection_solves: int = 0
    milp_fallbacks: int = 0
    infeasible_detections: int = 0


def _norm(problem: PolicyProblem, matrix: ThroughputMatrix, job_id: int) -> float:
    """``n_m = norm_m * throughput(m, X)``: weights are carried per iteration, not here."""
    return normalized_throughput_scale(
        matrix, problem.cluster_spec, job_id, scale_factor=problem.scale_factor(job_id)
    )


def _detection_rows(
    _job_ids: List[int], encoded: List[Encoding], columns: np.ndarray
) -> List[RowKind]:
    """``n_m - (delta + eps) * n_g * z_m``: the terms times the norm, then the job's indicator."""
    norms = np.fromiter((norm for _terms, norm, _count in encoded), float, len(encoded))
    counts = np.fromiter((count for _terms, _norm, count in encoded), float, len(encoded))
    return [(norms, columns, -(_IMPROVEMENT + _EPSILON) * counts)]


def _floor_and_level_rows(
    epigraph: int,
    weight_of: Mapping[int, float],
    job_ids: List[int],
    encoded: List[Encoding],
    _columns: np.ndarray,
) -> List[RowKind]:
    """The floor row ``n_m``, then the level row ``n_m - w_m * t`` (``w_m`` 1.0 if unnamed)."""
    norms = np.fromiter((norm for _terms, norm in encoded), float, len(encoded))
    weights = np.fromiter(map(weight_of.get, job_ids, itertools.repeat(1.0)), float, len(job_ids))
    return [(norms, None, 0.0), (norms, epigraph, -weights)]


class _DetectionProgram:
    """The persistent Appendix A.1 program of one level loop.

    A second live :class:`~repro.solver.lp.LinearProgram` over its own
    :class:`AllocationVariables`, holding per job the row
    ``n_m - (delta + eps) * n_g * z_m >= L_m - eps * n_g`` and the indicator
    column ``z_m`` of the module docstring, maximizing ``sum_m z_m``.
    :meth:`align` follows each snapshot with the same ``update_to`` diff the
    level program gets; :meth:`find_improvable` is then two bound sweeps and
    one warm solve.
    """

    def __init__(self, problem: PolicyProblem, matrix: ThroughputMatrix) -> None:
        self.program = LinearProgram(name="water_filling_detection")
        self._variables = AllocationVariables(problem, matrix, self.program)
        #: Per job its row and indicator ``z``, encoding ``(terms, norm, group
        #: count)`` — the terms tuple as handed out by *this* program's variables.
        self._rows = JobRows(self.program, column="z")
        #: The group counts in the matrix's job order, as of the last :meth:`align`.
        self._counts = np.empty(0)

    def align(
        self,
        problem: PolicyProblem,
        matrix: ThroughputMatrix,
        level_rows: Mapping[int, Encoding],
        renormed: Optional[Set[int]],
        counts: np.ndarray,
    ) -> None:
        """Follow the level program to ``problem``; ``level_rows`` are its rows' encodings.

        The detection rows reuse the level rows' norms and the level
        layout's group ``counts``.  ``renormed`` names the jobs whose norm the
        level program re-derived (``None``: any may have moved); only they
        and the jobs this program's own update touched are looked at.
        """
        variables = self._variables
        revision = variables.revision
        if variables.problem is not problem or variables.matrix is not matrix:
            variables.update_to(problem, matrix)
        rows = self._rows
        rows.remove_departed(problem.jobs)
        if not rows:
            variables.effective_throughput_blocks()  # primes the terms cache in one pass
        touched = variables.touched_since(revision)
        candidates = (
            sorted(job_id for job_id in touched | renormed if job_id in problem.jobs)
            if rows and touched is not None and renormed is not None
            else matrix.job_ids
        )
        terms = variables.effective_throughput_terms
        encodings = (
            (job_id, (terms(job_id), level_rows[job_id][1], problem.group_count(job_id)))
            for job_id in candidates
        )
        rows.write(encodings, _detection_rows)
        self._counts = counts
        _handles, _slots, indicators = rows.layout(matrix.job_ids)
        self.program.set_objective_from_arrays(indicators, np.ones(len(indicators)), maximize=True)

    def find_improvable(self, levels: np.ndarray, in_play: np.ndarray) -> Tuple[np.ndarray, bool]:
        """A maximum set of the jobs in play that can all gain ``delta`` at once.

        ``levels`` and the boolean ``in_play`` mask are in the matrix's job
        order.  Points the rows at ``levels`` and the indicators at the mask
        (1 at most for a job in play, 0 for the rest), re-solves and applies
        the decisive-LP rule (``_Z_TOLERANCE`` on both comparisons).  Returns
        the set as a mask in the same order plus whether the integer fallback
        was needed; raises :class:`InfeasibleError` when even "nobody drops
        below its level" has no solution.
        """
        program = self.program
        _handles, slots, indicators = self._rows.layout(self._variables.matrix.job_ids)
        program.set_constraint_bounds_at_slots(slots[:, 0], lower=levels - _EPSILON * self._counts)
        program.set_variable_bounds_from_arrays(indicators, 0.0, in_play)
        z = program.solve().values[indicators]
        chosen = z >= 1.0 - _Z_TOLERANCE
        decisive = float(z[~chosen].sum()) < 1.0 - _Z_TOLERANCE
        if not decisive:
            chosen = program.solve(integer_columns=indicators).values[indicators] > 0.5
        return chosen, not decisive


class _LevelLoopProgram:
    """The persistent water-filling LP over one :class:`AllocationVariables`.

    Owns the epigraph variable ``t`` plus, per job, the floor and level rows
    described in the module docstring, and re-aligns them incrementally
    against new problem snapshots (:meth:`align`) — together with the
    :class:`_DetectionProgram` it owns.  One :meth:`run` call executes the
    complete level loop of Section 4.3 through right-hand-side sweeps and
    warm re-solves of the two live programs.

    The loop's state lives in arrays in the matrix's job order: levels,
    weights and the in-play mask per run, and per :meth:`align` the group
    counts, the weight each level row encodes and the rows' layout (their
    handles and bound slots, :meth:`~repro.core.session.JobRows.layout`), so
    an iteration is a few array writes.
    """

    #: Whether an iteration with one job in play skips its detection LP (see
    #: :meth:`run`); the equivalence tests switch it off to compare.
    _ELIDE_LONE_DETECTION = True

    def __init__(self, program: LinearProgram, variables: AllocationVariables) -> None:
        self._program = program
        self._variables = variables
        # Every level LP maximizes ``t``: the objective is set once, here.
        self._epigraph = program.add_variable(name="water_level_t", lower=-math.inf)
        program.set_objective_from_arrays([self._epigraph.index], [1.0], maximize=True)
        self._problem: Optional[PolicyProblem] = None
        #: Per job its floor and level rows, encoding ``(terms, norm)``.
        self._rows = JobRows(program, per_job=2)
        self._scales = NormalizationCache(_norm)
        #: The matrix's job order as of the last :meth:`align`, and in it the
        #: group counts and the weight ``w_m`` each level row encodes as its
        #: ``-w_m * t`` term (written in place as iterations reweight).
        self._job_order: Tuple[int, ...] = ()
        self._counts = np.empty(0)
        self._weights = np.empty(0)
        #: Whether the last :meth:`align` ran to the end (else the next one
        #: cannot tell the detection program which norms moved).
        self._aligned = True
        self.detection = _DetectionProgram(variables.problem, variables.matrix)

    # -- structural alignment ---------------------------------------------------------
    def align(self, problem: PolicyProblem) -> None:
        """Re-align the per-job rows with the variables' current snapshot.

        Must run after the owning :class:`AllocationVariables` has been
        synchronised (``update_to``): vanished jobs lose both rows, new jobs
        gain them, and persisting jobs whose cached throughput terms or
        normalization factor moved (estimate refinements, cluster resizes)
        get their coefficients rewritten in place — over the jobs the
        :class:`NormalizationCache` refresh returns.  A rewritten level row
        keeps the weight it encodes.  The layout then follows the matrix's
        job order, and the detection program follows with the same diff,
        told which norms moved.
        """
        self._problem = problem
        variables = self._variables
        complete, self._aligned = self._aligned, False
        weight_of = dict(zip(self._job_order, self._weights.tolist()))
        for job_id in self._rows.remove_departed(problem.jobs):
            self._scales.discard(job_id)
            weight_of.pop(job_id, None)
        fresh = not self._rows
        if fresh:
            self._scales.clear()
            variables.effective_throughput_blocks()  # primes the terms cache in one pass
        changed = self._scales.refresh(problem, variables)
        self._rows.write(
            ((job_id, (terms, norm)) for job_id, terms, norm in changed),
            functools.partial(_floor_and_level_rows, self._epigraph.index, weight_of),
        )
        renormed = None if fresh or not complete else {job_id for job_id, _t, _n in changed}
        self._lay_out(problem, weight_of)
        self.detection.align(problem, variables.matrix, self._rows.encoded, renormed, self._counts)
        self._aligned = True

    def _lay_out(self, problem: PolicyProblem, weight_of: Mapping[int, float]) -> None:
        """Point the layout at the matrix's job order (``weight_of``: the encoded weights).

        The weights are looked up only when the order moved (a job's rows,
        and the weight they encode, stay while the job does); the group
        counts are read every time, since a type-aggregated problem may
        regroup without a structural edit.
        Levels track group *totals* on aggregated problems, so every epsilon
        slack, improvement threshold and freeze-guard comparison scales by
        the count (a per-member delta for each of the ``n_g`` members).
        """
        job_ids = self._variables.matrix.job_ids
        size = len(job_ids)
        if job_ids != self._job_order:
            self._weights = np.fromiter(
                map(weight_of.get, job_ids, itertools.repeat(1.0)), float, count=size
            )
            self._job_order = job_ids
        if problem.group_counts is None:
            self._counts = np.ones(size)
        else:
            self._counts = np.fromiter(map(problem.group_count, job_ids), float, count=size)

    # -- per-iteration edits ----------------------------------------------------------
    def _begin_iteration(
        self, weights: np.ndarray, levels: np.ndarray, in_play: np.ndarray
    ) -> None:
        """Point the live program at one level LP (all arrays in the layout's job order).

        Floors go to ``levels - eps * n_g``; a job in play whose weight moved
        gets its epigraph coefficient rewritten (one column edit, nothing
        else of its row); level rows in play go to ``levels``, the rest are
        relaxed to ``-inf``.
        """
        program = self._program
        handles, slots, _columns = self._rows.layout(self._job_order)
        program.set_constraint_bounds_at_slots(slots[:, 0], lower=levels - _EPSILON * self._counts)
        (reweighted,) = (in_play & (weights != self._weights)).nonzero()
        if len(reweighted):
            moved = weights[reweighted]
            program.set_column_coefficients_from_arrays(
                self._epigraph, handles[reweighted, 1], -moved
            )
            self._weights[reweighted] = moved
        program.set_constraint_bounds_at_slots(slots[:, 1], np.where(in_play, levels, -math.inf))

    def _solve_level(self) -> Tuple[Solution, float]:
        """Solve the current level LP: ``(solution, t*)``.

        ``t*`` — the optimal minimum weighted increase — is the LP's optimal
        *value* and therefore unique, unlike the allocation vertex achieving
        it.  The loop raises levels analytically (``level += w_m * t*``)
        rather than reading them off the vertex, which keeps the whole
        trajectory (levels, freeze order, weight redistribution) a
        deterministic function of the problem snapshot: a warm-started
        session and a cold rebuild walk identical level loops even when
        degenerate optima let their solvers pick different vertices.  Only
        the last iteration's vertex is ever turned into an allocation.
        """
        solution = self._program.solve()
        return solution, max(0.0, float(solution.objective_value))

    # -- the level loop ---------------------------------------------------------------
    def run(
        self,
        initial_weights: Mapping[int, float],
        redistribute: Optional[_Redistribute] = None,
        max_iterations: Optional[int] = None,
    ) -> WaterFillingResult:
        """Execute the Section 4.3 level loop on the live program.

        An iteration with a single job in play skips the detection LP: the
        level LP has just maximized that job alone under the floors the
        detection keeps, so its row admits ``z <= eps / (delta + eps)`` at
        most, the relaxation is decisive at the empty set whatever vertex
        it returns, and it cannot be infeasible.  The job freezes as the
        detection would have frozen it, and
        :attr:`WaterFillingResult.detection_solves` does not count the
        iteration.
        """
        if self._problem is None:
            raise ConfigurationError("level-loop program was never aligned to a problem")
        job_ids = self._job_order
        size = len(job_ids)
        counts = self._counts
        limit = max_iterations if max_iterations is not None else size + 2
        weights: Dict[int, float] = {
            job_id: float(initial_weights.get(job_id, 0.0)) for job_id in job_ids
        }
        weight_vec = np.fromiter(weights.values(), float, count=size)
        if (weight_vec <= 0).all():
            raise ConfigurationError("water filling requires at least one positive job weight")

        levels = np.zeros(size)
        frozen = np.zeros(size, dtype=bool)
        frozen_ids: Set[int] = set()
        bottleneck_order: List[Set[int]] = []
        solution: Optional[Solution] = None
        iterations = detection_solves = milp_fallbacks = infeasible_detections = 0

        positive = weight_vec > 0
        while iterations < limit:
            iterations += 1
            in_play = positive & ~frozen
            in_play_count = np.count_nonzero(in_play)
            if not in_play_count:
                break
            self._begin_iteration(weight_vec, levels, in_play)
            solution, t_star = self._solve_level()
            levels[in_play] += weight_vec[in_play] * t_star

            if in_play_count == 1 and self._ELIDE_LONE_DETECTION:
                newly_frozen = in_play
            else:
                detection_solves += 1
                try:
                    improvable, fell_back = self.detection.find_improvable(levels, in_play)
                except InfeasibleError:
                    # Not even "nobody drops below its level" is feasible:
                    # nothing can be shown improvable, so everything in play
                    # freezes — on the record.  A SolverError is a failure and
                    # propagates.
                    infeasible_detections += 1
                    newly_frozen = in_play
                else:
                    milp_fallbacks += fell_back
                    newly_frozen = in_play & ~improvable
            (positions,) = newly_frozen.nonzero()
            if not len(positions):
                # Guard against cycling: freeze the lowest-level active group
                # (compared per member so group size does not bias the pick);
                # a tie goes to the first such job in the active *set*'s order.
                (positions,) = in_play.nonzero()
                position_of = {job_ids[position]: position for position in positions.tolist()}
                active = {job_ids[position] for position in positions.tolist()}
                per_member = levels / counts
                pick = min(active, key=lambda job_id: per_member[position_of[job_id]])
                positions = np.array([position_of[pick]])
            frozen[positions] = True
            newly = {job_ids[position] for position in positions.tolist()}
            bottleneck_order.append(newly)

            if redistribute is not None:
                frozen_ids |= newly
                weights = dict(redistribute(weights, frozen_ids))
                weight_vec = np.fromiter(
                    map(weights.get, job_ids, itertools.repeat(0.0)), float, count=size
                )
                positive = weight_vec > 0
            if frozen.all():
                break

        if solution is None:
            raise InfeasibleError("water filling produced no allocation")
        return WaterFillingResult(
            allocation=self._variables.extract_allocation(solution),
            normalized_throughputs=dict(zip(job_ids, levels.tolist())),
            iterations=iterations,
            bottleneck_order=bottleneck_order,
            detection_solves=detection_solves,
            milp_fallbacks=milp_fallbacks,
            infeasible_detections=infeasible_detections,
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
        max_iterations: Optional[int] = None,
    ) -> None:
        self._problem = problem
        self._matrix = matrix
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
        loop = _LevelLoopProgram(program, variables)
        loop.align(self._problem)
        return loop.run(
            initial_weights, redistribute=redistribute, max_iterations=self._max_iterations
        )


class WaterFillingSession(IncrementalProgramSession):
    """Stateful water-filling solver: one live level-loop program across rounds.

    The decision variables, validity constraints and the per-job floor/level
    rows persist, and so does the detection program beside them; a churn
    event becomes the usual :class:`~repro.core.policy.AllocationVariables`
    delta sync plus an :meth:`_LevelLoopProgram.align` diff on each, and
    every level iteration re-solves the two warm programs instead of building
    a new one.  The owning policy
    supplies the weight semantics through
    ``water_filling_weights(problem)`` / ``water_filling_redistribution(problem)``
    (single-level fairness keeps weights fixed; the hierarchical policy
    splits entity weights and re-splits on every freeze).
    """

    def __init__(self, policy: "_WaterFillingPolicyBase", problem: PolicyProblem) -> None:
        super().__init__(policy, problem, LinearProgram(name=policy.display_name))
        self._loop = _LevelLoopProgram(self._program, self._variables)
        self._last_result: Optional[WaterFillingResult] = None

    @property
    def last_result(self) -> Optional[WaterFillingResult]:
        """Diagnostics of the most recent solve (levels, bottleneck order)."""
        return self._last_result

    @property
    def detection_program(self) -> LinearProgram:
        """The live Appendix A.1 program (exposed for tests and diagnostics)."""
        return self._loop.detection.program

    def programs(self) -> Iterator[LinearProgram]:
        yield from (self._program, self._loop.detection.program)

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
