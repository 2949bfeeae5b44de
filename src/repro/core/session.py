"""Stateful policy sessions: incremental allocation recomputation.

PR 1 made policy-*input* preparation incremental (the
:class:`~repro.core.allocation_engine.AllocationEngine` maintains the
throughput matrix across job churn); this module makes the policy *solve*
incremental.  A :class:`PolicySession` is opened once per scheduling loop
(``policy.session(initial_problem)``) and kept alive across allocation
recomputations:

* the engine (or any driver) feeds it **deltas** — :class:`JobAdded`,
  :class:`JobRemoved`, :class:`EstimateRefined` — describing what changed
  since the last solve;
* ``session.solve(problem)`` re-aligns the session's live solver program
  with the new snapshot by editing only the dirty parts (new/vanished matrix
  rows become targeted variable/constraint edits, refreshed pair estimates
  become bound updates) and re-solves.

Deltas are advisory: sessions verify the actual difference against the
matrix inside the problem snapshot, so a missed or duplicated delta can cost
time but never correctness.  Every policy supports the API — policies
without reusable solver state fall back to :class:`RebuildSession`, which
recomputes from scratch per solve — and the stateless
``Policy.compute_allocation`` is now a thin wrapper that opens a fresh
session and solves once, so both APIs always agree.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.cluster.cluster_spec import ClusterSpec
from repro.core.allocation import Allocation
from repro.core.policy import AllocationVariables, OptimizationPolicy, Policy, _Program
from repro.core.problem import PolicyProblem
from repro.core.throughput_matrix import ThroughputMatrix
from repro.exceptions import ConfigurationError, InfeasibleError
from repro.solver.lp import LinearProgram
from repro.workloads.job import Job

__all__ = [
    "JobAdded",
    "JobRemoved",
    "EstimateRefined",
    "TypeCountChanged",
    "PolicyDelta",
    "DeltaSummary",
    "summarize_deltas",
    "PolicySession",
    "RebuildSession",
    "IncrementalProgramSession",
    "NormalizationCache",
    "IncrementalLPSession",
    "ThroughputFeasibilitySession",
]

#: Tag under which sessions create per-solve objective state (epigraph
#: variables and constraints); cleared and rebuilt on every solve.
OBJECTIVE_TAG = "objective"


@dataclass(frozen=True)
class JobAdded:
    """A job entered the active set."""

    job: Job


@dataclass(frozen=True)
class JobRemoved:
    """A job left the active set (completion or cancellation)."""

    job_id: int


@dataclass(frozen=True)
class EstimateRefined:
    """Colocated-throughput estimates were refined for some job types.

    ``job_types`` lists the affected types; ``None`` means the refinement
    could not be attributed (consumers should treat every pair row as
    potentially stale).
    """

    job_types: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class TypeCountChanged:
    """The active count of one aggregation group changed.

    Emitted by the :class:`~repro.core.allocation_engine.AllocationEngine`
    alongside the per-job stream whenever a job arrival or completion moves a
    group's histogram count.  ``key`` is the
    :class:`~repro.core.aggregation.AggregationKey` of the group and
    ``count`` its new size (0 when the group emptied).  Per-job sessions
    ignore it; aggregated sessions use it the way per-job sessions use
    :class:`JobAdded`/:class:`JobRemoved` — as an advisory dirtiness hint.
    """

    key: Tuple[object, ...]
    count: int


PolicyDelta = Union[JobAdded, JobRemoved, EstimateRefined, TypeCountChanged]


@dataclass(frozen=True)
class DeltaSummary:
    """Aggregate view of one drained delta batch.

    Collapses a raw delta stream into the per-kind facts consumers check
    against engine state: which jobs entered/left, which job types had their
    estimates refined (``refined_all`` when a refinement could not be
    attributed), and the *final* advertised count per aggregation group
    (later :class:`TypeCountChanged` entries supersede earlier ones for the
    same key, matching how the engine emits them).
    """

    added_job_ids: Tuple[int, ...]
    removed_job_ids: Tuple[int, ...]
    refined_job_types: Tuple[str, ...]
    refined_all: bool
    group_counts: Tuple[Tuple[Tuple[object, ...], int], ...]

    def final_group_counts(self) -> dict:
        """Final advertised count per aggregation key, as a dict."""
        return dict(self.group_counts)


def summarize_deltas(deltas: Iterable[PolicyDelta]) -> DeltaSummary:
    """Fold a delta stream into a :class:`DeltaSummary`.

    This dispatch is exhaustive over the :data:`PolicyDelta` union by
    construction (checked by the REP011 whole-program rule): registering a
    new delta kind without extending this chain is a static-analysis error,
    not a silent drop.
    """
    added: List[int] = []
    removed: List[int] = []
    refined: List[str] = []
    refined_all = False
    counts: dict = {}
    for delta in deltas:
        if isinstance(delta, JobAdded):
            added.append(delta.job.job_id)
        elif isinstance(delta, JobRemoved):
            removed.append(delta.job_id)
        elif isinstance(delta, EstimateRefined):
            if delta.job_types is None:
                refined_all = True
            else:
                refined.extend(delta.job_types)
        elif isinstance(delta, TypeCountChanged):
            counts[delta.key] = delta.count
    return DeltaSummary(
        added_job_ids=tuple(added),
        removed_job_ids=tuple(removed),
        refined_job_types=tuple(sorted(set(refined))),
        refined_all=refined_all,
        group_counts=tuple(counts.items()),
    )


class PolicySession(abc.ABC):
    """A stateful handle for repeatedly computing one policy's allocation.

    Lifecycle::

        session = policy.session(problem)      # build solver state once
        allocation = session.solve()           # first allocation
        ...
        session.update(JobAdded(job))          # or session.apply(engine.drain_deltas())
        allocation = session.solve(problem)    # fresh snapshot, incremental re-solve

    ``solve`` takes the current :class:`PolicyProblem` snapshot because
    objectives depend on time-varying state (steps remaining, elapsed time)
    that deltas do not carry; passing ``None`` re-solves the last snapshot.
    """

    def __init__(self, policy: Policy, problem: PolicyProblem) -> None:
        self._policy = policy
        self._problem = problem
        self._pending: List[PolicyDelta] = []

    @property
    def policy(self) -> Policy:
        return self._policy

    @property
    def problem(self) -> PolicyProblem:
        """The most recent problem snapshot this session has seen."""
        return self._problem

    def update(self, delta: PolicyDelta) -> None:
        """Record one delta to be applied on the next :meth:`solve`."""
        self._pending.append(delta)

    def apply(self, deltas: Iterable[PolicyDelta]) -> None:
        """Record a batch of deltas (e.g. ``engine.drain_deltas()``)."""
        self._pending.extend(deltas)

    def prepare(self, problem: Optional[PolicyProblem] = None) -> None:
        """Align the live solver state with ``problem`` without solving.

        Applies pending deltas, re-syncs the decision variables and rebuilds
        the policy objective, leaving only the LP solve for :meth:`solve`.
        Benchmarks use this to time LP *construction* separately from the
        solver; calling :meth:`solve` afterwards is always correct (the
        alignment is idempotent).
        """
        if problem is not None:
            self._problem = problem
        self._prepare(self._problem)
        self._pending.clear()

    def _prepare(self, problem: PolicyProblem) -> None:
        """Policy-specific alignment; default no-op (stateless sessions)."""

    def solve(self, problem: Optional[PolicyProblem] = None) -> Allocation:
        """Compute the allocation for ``problem`` (default: last snapshot)."""
        if problem is not None:
            self._problem = problem
        allocation = self._solve(self._problem)
        self._pending.clear()
        return allocation

    @abc.abstractmethod
    def _solve(self, problem: PolicyProblem) -> Allocation:
        """Policy-specific solve against the current snapshot."""


class RebuildSession(PolicySession):
    """Fallback session with no reusable state: every solve is from scratch.

    This keeps the session API universal — the combinatorial baselines
    (AlloX's matching, Gandiva's random packing) re-derive their internal
    structures per solve anyway, so there is nothing to keep warm.  Since the
    water-filling/hierarchical family moved to persistent level-loop sessions
    (:class:`~repro.core.water_filling.WaterFillingSession`), the baselines
    are the only registry policies left on this path; it also doubles as the
    from-scratch reference in the session-equivalence test harness.
    """

    def _solve(self, problem: PolicyProblem) -> Allocation:
        return self._policy.compute_allocation(problem)


class IncrementalProgramSession(PolicySession):
    """Shared machinery for sessions that keep a solver program alive.

    Owns an :class:`~repro.core.policy.AllocationVariables` bound to a
    mutable program and re-synchronises it lazily: a solve skips the
    structural diff entirely when the snapshot's throughput matrix is the
    *same object* as last time and no deltas arrived (the allocation engine
    memoizes its matrix, so an unchanged cluster hits this path).
    """

    def __init__(self, policy: Policy, problem: PolicyProblem, program: _Program) -> None:
        super().__init__(policy, problem)
        self._program = program
        self._variables = AllocationVariables(
            problem, policy.effective_matrix(problem), program
        )
        self._source_matrix = problem.throughputs
        self._problem_seen = problem

    @property
    def program(self) -> _Program:
        """The live solver program (exposed for tests and diagnostics)."""
        return self._program

    @property
    def variables(self) -> AllocationVariables:
        return self._variables

    def _sync(self, problem: PolicyProblem) -> None:
        if (
            problem.throughputs is self._source_matrix
            and problem is self._problem_seen
            and not self._pending
        ):
            return
        self._variables.update_to(problem, self._policy.effective_matrix(problem))
        self._source_matrix = problem.throughputs
        self._problem_seen = problem

    def _prepare(self, problem: PolicyProblem) -> None:
        self._sync(problem)


class NormalizationCache:
    """Per-job normalization factors, re-derived only when an input moved.

    :func:`~repro.core.effective_throughput.normalized_throughput_scale`
    reads the job's own matrix row, the cluster, and the job's scale factor
    and priority weight.  A session's :class:`AllocationVariables` hands out
    the *same* throughput-terms tuple until one of the job's rows changes, so
    the tuple's identity stands for the row and ``compute`` runs again only
    when it, the cluster or one of the two job attributes differs from the
    last :meth:`refresh` — the one skip rule of the LAS session and the
    water-filling level loop (whose detection rows reuse the level rows'
    factors).
    """

    def __init__(
        self, compute: Callable[[PolicyProblem, ThroughputMatrix, int], float]
    ) -> None:
        self._compute = compute
        #: job id -> (terms tuple, cluster, scale factor, priority weight).
        self._inputs: Dict[int, Tuple[object, ClusterSpec, int, float]] = {}

    def refresh(
        self, problem: PolicyProblem, variables: AllocationVariables
    ) -> Iterator[Tuple[int, Tuple[np.ndarray, np.ndarray], float]]:
        """Yield ``(job id, terms, factor)`` of every job that is new or whose inputs moved.

        Jobs come in the matrix's job order; an unchanged snapshot yields
        nothing and calls ``compute`` for nobody.
        """
        matrix = variables.matrix
        terms_of = variables.effective_throughput_terms
        cluster = problem.cluster_spec
        jobs = problem.jobs
        inputs = self._inputs
        for job_id in matrix.job_ids:
            terms = terms_of(job_id)
            job = jobs[job_id]
            seen = inputs.get(job_id)
            if (
                seen is not None
                and seen[0] is terms
                and (seen[1] is cluster or seen[1] == cluster)
                and seen[2] == job.scale_factor
                and seen[3] == job.priority_weight
            ):
                continue
            scale = self._compute(problem, matrix, job_id)
            inputs[job_id] = (terms, cluster, job.scale_factor, job.priority_weight)
            yield job_id, terms, scale

    def discard(self, job_id: int) -> None:
        """Forget a departed job."""
        self._inputs.pop(job_id, None)

    def clear(self) -> None:
        """Forget everybody: the next :meth:`refresh` yields every job."""
        self._inputs.clear()


class IncrementalLPSession(IncrementalProgramSession):
    """Session for :class:`~repro.core.policy.OptimizationPolicy` subclasses.

    The decision variables and Section 3.1 validity constraints live across
    solves; only the policy objective (tagged ``objective``) is torn down and
    rebuilt each round, reusing cached per-job throughput expressions for
    every job whose rows did not change.
    """

    def __init__(self, policy: OptimizationPolicy, problem: PolicyProblem) -> None:
        if not isinstance(policy, OptimizationPolicy):
            raise ConfigurationError(
                f"{type(policy).__name__} is not an OptimizationPolicy; "
                "use the policy's own session() instead"
            )
        super().__init__(policy, problem, LinearProgram(name=policy.display_name))

    def _prepare(self, problem: PolicyProblem) -> None:
        self._sync(problem)
        program = self._program
        program.clear_tag(OBJECTIVE_TAG)
        program.begin_tag(OBJECTIVE_TAG)
        try:
            self._policy.build_objective(problem, self._variables, program)
        finally:
            program.end_tag()

    def _solve(self, problem: PolicyProblem) -> Allocation:
        self._prepare(problem)
        solution = self._program.solve()
        return self._variables.extract_allocation(solution)


class ThroughputFeasibilitySession(IncrementalProgramSession):
    """Base session for bisection policies (makespan, finish-time fairness).

    Both policies binary-search a scalar and solve, per candidate, an LP
    whose only candidate-dependent part is the right-hand side of per-job
    ``throughput(m, X) >= rhs_m`` constraints.  This session keeps those
    constraints (and the keep-the-cluster-busy objective) alive, so a
    candidate evaluation is a right-hand-side edit plus a solve — the cached
    constraint matrix is reused across *all* bisection iterations of *all*
    rounds.
    """

    def __init__(self, policy: Policy, problem: PolicyProblem) -> None:
        super().__init__(policy, problem, LinearProgram(name=policy.display_name))
        self._feasibility: dict = {}
        self._feasibility_terms: dict = {}

    def _prepare(self, problem: PolicyProblem) -> None:
        self._sync(problem)
        self._align_feasibility()

    def _align_feasibility(self) -> None:
        """Re-align per-job feasibility constraints and the total-throughput objective.

        Must be called after :meth:`_sync`; relies on the terms cache
        returning the *same object* for jobs whose rows did not change to
        detect which constraints need their coefficients refreshed.  A
        from-scratch alignment emits every feasibility row in one columnar
        call.
        """
        program = self._program
        variables = self._variables
        job_ids = variables.matrix.job_ids
        active = set(job_ids)
        for job_id in list(self._feasibility):
            if job_id not in active:
                program.remove_constraint(self._feasibility.pop(job_id))
                self._feasibility_terms.pop(job_id, None)
        # One columnar gather serves both the constraint block and the
        # objective: among feasible allocations prefer higher total
        # throughput so the witness allocation keeps the cluster busy.
        ids, starts, cols, vals = variables.effective_throughput_blocks()
        if not self._feasibility:
            handles = program.add_constraints_from_arrays(
                np.repeat(np.arange(len(ids), dtype=np.int64), np.diff(starts)),
                cols,
                vals,
                np.zeros(len(ids)),
                math.inf,
            )
            for position, job_id in enumerate(ids.tolist()):
                self._feasibility[job_id] = int(handles[position])
                self._feasibility_terms[job_id] = variables.effective_throughput_terms(job_id)
        else:
            for job_id in job_ids:
                terms = variables.effective_throughput_terms(job_id)
                handle = self._feasibility.get(job_id)
                if handle is None:
                    row_cols, row_vals = terms
                    self._feasibility[job_id] = int(
                        program.add_constraints_from_arrays(
                            np.zeros(len(row_cols), dtype=np.int64),
                            row_cols,
                            row_vals,
                            np.zeros(1),
                            math.inf,
                        )[0]
                    )
                    self._feasibility_terms[job_id] = terms
                elif self._feasibility_terms.get(job_id) is not terms:
                    program.set_constraint_coefficients_from_arrays(handle, *terms)
                    self._feasibility_terms[job_id] = terms
        program.set_objective_from_arrays(cols, vals, maximize=True)

    def _set_feasibility_rhs(self, required: dict) -> None:
        """Set each job's minimum-throughput right-hand side for one candidate."""
        for job_id, handle in self._feasibility.items():
            self._program.set_constraint_bounds(handle, lower=required[job_id])

    def _solve_candidate(self) -> Optional[Allocation]:
        """Solve the current candidate; ``None`` when infeasible."""
        try:
            solution = self._program.solve()
        except InfeasibleError:
            return None
        return self._variables.extract_allocation(solution)
