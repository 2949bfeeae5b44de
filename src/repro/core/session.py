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

Minimum-scalar policies
-----------------------

Makespan and finish-time fairness are not LPs but ``min theta`` subject to
``throughput(m, X) >= r_m(theta)`` with every ``r_m`` decreasing
(:class:`RequirementCurves`).  :class:`ThroughputRequirementSession`
solves them without searching for ``theta``: a persistent *scaling* program
``max y`` s.t. ``throughput(m, X) - r_m(theta_k) * y >= 0`` is solved at a
candidate ``theta_k`` and certifies a bound on each side — the ``theta`` its
own allocation achieves (primal, ``U``), and, from the job rows' multipliers
``lambda``, the root ``L`` of

    ``sum_m lambda_m r_m(theta) = y_k * sum_m lambda_m r_m(theta_k)``

(weak duality: no achievable ``theta`` has a larger left side).  The next
candidate sits just right of ``L``; a step that fails to halve ``[L, U]`` is
followed by a solve at the midpoint, so the loop is never worse than a
bisection of a bracket that is already certified; and once ``U - L <=
relative_tolerance * U`` a second persistent program, the *witness*, is solved
once at ``U`` for the allocation.  Two programs, not one, so that each keeps
the basis that is optimal for its own objective.  Makespan closes in one
scaling LP, finish-time fairness in one to three.
"""

from __future__ import annotations

import abc
import copy
import math
from dataclasses import dataclass
from itertools import filterfalse
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.cluster.cluster_spec import ClusterSpec
from repro.core.allocation import Allocation
from repro.core.effective_throughput import isolated_reference_throughputs
from repro.core.policy import AllocationVariables, OptimizationPolicy, Policy
from repro.core.problem import PolicyProblem
from repro.core.throughput_matrix import ThroughputMatrix
from repro.exceptions import ConfigurationError, InfeasibleError, SolverError
from repro.solver.lp import LinearProgram
from repro.workloads.job import Job

__all__ = [
    "JobAdded",
    "JobRemoved",
    "EstimateRefined",
    "TypeCountChanged",
    "PolicyDelta",
    "PolicySession",
    "RebuildSession",
    "IncrementalProgramSession",
    "NormalizationCache",
    "JobRows",
    "IncrementalLPSession",
    "RequirementCurves",
    "steps_and_isolated_throughputs",
    "ThroughputRequirementSession",
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


class PolicySession(abc.ABC):
    """A stateful handle for repeatedly computing one policy's allocation.

    Lifecycle::

        session = policy.session(problem)      # build solver state once
        allocation = session.solve()           # first allocation
        ...
        session.apply([JobAdded(job)])         # or session.apply(engine.drain_deltas())
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

    def programs(self) -> Iterator[LinearProgram]:
        """The solver programs this session keeps alive across solves (none by default)."""
        return iter(())

    def clone(self, policy: Policy) -> "PolicySession":
        """A copy of this session's solver state that answers to ``policy``.

        The mutable state is copied: the programs
        (a live model as its call journal, without HiGHS: see
        :meth:`~repro.solver.lp.LinearProgram.rebuild_model`), the
        :class:`~repro.core.policy.AllocationVariables`, the caches and
        Dinkelbach's ratio.  The immutable inputs are shared — jobs, problems,
        throughput matrices, cluster specs, allocations and aggregated views
        copy as themselves — so identity tests such as
        :class:`NormalizationCache`'s ``seen[1] is cluster`` pass on the copy
        exactly as they would have on this session.  Every reference to this
        session's policy points at ``policy`` in the copy.
        """
        return copy.deepcopy(self, {id(self._policy): policy})

    @property
    def problem(self) -> PolicyProblem:
        """The most recent problem snapshot this session has seen."""
        return self._problem

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
    mutable program and re-synchronises it lazily: a solve calls
    :meth:`~repro.core.policy.AllocationVariables.update_to` only when the
    snapshot or its throughput matrix is a new object or deltas arrived, and
    an update costs the rows the event changed — the two snapshots' rows are
    matched by integer keys, and each constraint family is edited in one
    batched call.  The per-job rows a session builds on top are
    :class:`JobRows` families that look only at the jobs the event touched
    (:meth:`~repro.core.policy.AllocationVariables.touched_since`,
    :class:`NormalizationCache`).
    """

    def __init__(self, policy: Policy, problem: PolicyProblem, program: LinearProgram) -> None:
        super().__init__(policy, problem)
        self._program = program
        self._variables = AllocationVariables(
            problem, policy.effective_matrix(problem), program
        )
        self._source_matrix = problem.throughputs
        self._problem_seen = problem

    @property
    def program(self) -> LinearProgram:
        """The live solver program (exposed for tests and diagnostics)."""
        return self._program

    def programs(self) -> Iterator[LinearProgram]:
        yield self._program

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
    the tuple's identity stands for the row, and ``compute`` runs again only
    when it, the cluster or one of the two job attributes differs from the
    last :meth:`refresh`.  The LAS session and the water-filling level loop
    hand what a refresh returns to their :class:`JobRows`, which rewrites a
    row only if its terms or factor moved (the detection rows reuse the
    level rows' factors).

    A refresh visits only the jobs whose inputs can have moved since the
    last one: those the variables' updates touched
    (:meth:`~repro.core.policy.AllocationVariables.touched_since`) and those
    whose :class:`~repro.workloads.job.Job` object changed (one C-level
    comparison of the two job mappings).  It visits every job when the
    cluster changed, when the variables are not the last refresh's, or when
    their history does not reach back to it.
    """

    def __init__(
        self, compute: Callable[[PolicyProblem, ThroughputMatrix, int], float]
    ) -> None:
        self._compute = compute
        #: job id -> (terms tuple, cluster, scale factor, priority weight).
        self._inputs: Dict[int, Tuple[object, ClusterSpec, int, float]] = {}
        #: ``(variables, their revision, problem)`` of the last refresh.
        self._seen: Optional[Tuple[AllocationVariables, int, PolicyProblem]] = None

    def refresh(
        self, problem: PolicyProblem, variables: AllocationVariables
    ) -> List[Tuple[int, Tuple[np.ndarray, np.ndarray], float]]:
        """``(job id, terms, factor)`` of every job that is new or whose inputs moved.

        Jobs come in the matrix's job order; an unchanged snapshot returns
        nothing and calls ``compute`` for nobody.  All or nothing: if a
        ``compute`` raises, no factor of this refresh is recorded.
        """
        matrix = variables.matrix
        cluster = problem.cluster_spec
        jobs = problem.jobs
        inputs = self._inputs
        seen = self._seen
        candidates: Optional[Iterable[int]] = None
        if seen is not None and seen[0] is variables:
            before = seen[2].cluster_spec
            if before is cluster or before == cluster:
                candidates = variables.touched_since(seen[1])
        if candidates is not None:
            if jobs is not seen[2].jobs:
                moved = filterfalse(seen[2].jobs.items().__contains__, jobs.items())
                candidates = candidates.union(job_id for job_id, _job in moved)
            candidates = sorted(job_id for job_id in candidates if job_id in jobs)
        changed = []
        for job_id in matrix.job_ids if candidates is None else candidates:
            terms = variables.effective_throughput_terms(job_id)
            job = jobs[job_id]
            held = inputs.get(job_id)
            if (
                held is not None
                and held[0] is terms
                and (held[1] is cluster or held[1] == cluster)
                and held[2] == job.scale_factor
                and held[3] == job.priority_weight
            ):
                continue
            changed.append((job_id, terms, self._compute(problem, matrix, job_id), job))
        for job_id, terms, _scale, job in changed:
            inputs[job_id] = (terms, cluster, job.scale_factor, job.priority_weight)
        self._seen = (variables, variables.revision, problem)
        return [(job_id, terms, scale) for job_id, terms, scale, _job in changed]

    def discard(self, job_id: int) -> None:
        """Forget a departed job."""
        self._inputs.pop(job_id, None)

    def clear(self) -> None:
        """Forget everybody: the next :meth:`refresh` returns every job."""
        self._inputs.clear()
        self._seen = None


#: What a job's rows encode: its throughput-terms tuple, compared by identity
#: (see :class:`NormalizationCache`), then scalars compared by equality.
Encoding = Tuple[Any, ...]
#: One kind of row, for the jobs laid out: ``(factors, column, value)`` — each
#: job's terms times its entry of ``factors`` (``None``: as they are), then,
#: unless ``column`` is ``None``, a last term ``value * x[column]`` (a scalar
#: shared by every row or an array with one entry per job).
RowKind = Tuple[Optional[np.ndarray], "int | np.ndarray | None", "float | np.ndarray"]
#: ``layout(job ids, their encodings, their own columns)``: a family's row kinds.
Layout = Callable[[List[int], List[Encoding], np.ndarray], List[RowKind]]
_Triplet = Tuple[np.ndarray, np.ndarray, np.ndarray]


class JobRows:
    """``per_job`` persistent rows per job of a live program, kept in step with the job set.

    The one implementation of a per-job row family — LAS's epigraph rows,
    the minimum-scalar policies' requirement rows, water filling's floor and
    level rows and its detection rows.  It holds each job's row handles and
    what its rows encode, splits the jobs of an event into departed, added
    and rewritten, and makes each kind of edit one batched
    :class:`~repro.solver.lp.LinearProgram` call; a family supplies the
    :data:`Encoding` of the jobs to look at and a :data:`Layout`.

    Rows go in job by job, a job's rows in kind order — except that jobs
    added to an empty family go in one block per kind (every job's first
    row, then every job's second).  With ``column`` set each job also owns a
    column of that name, added (fixed at 0) before its rows and released
    after them: the column pool is shared with the ``x`` columns, so the
    coefficients must be gone before the index is recycled.  Departed jobs
    go in the order they came, which is the order their columns are recycled.
    """

    def __init__(
        self,
        program: LinearProgram,
        per_job: int = 1,
        lower: float = -math.inf,
        upper: float = math.inf,
        column: Optional[str] = None,
    ) -> None:
        self._program = program
        self._per_job = per_job
        self._bounds = (lower, upper)
        self._column = column
        #: job id -> its rows' handles in kind order, in the order jobs came.
        self._handles: Dict[int, Tuple[int, ...]] = {}
        #: job id -> its own column (``column`` families only).
        self._columns: Dict[int, int] = {}
        #: job id -> what its rows encode.
        self.encoded: Dict[int, Encoding] = {}
        #: ``(job order, (handles, bound slots, own columns))``, dropped by every edit.
        self._layout: Optional[Tuple[Tuple[int, ...], Tuple[np.ndarray, ...]]] = None

    def __len__(self) -> int:
        return len(self._handles)

    def remove_departed(self, jobs: Mapping[int, object]) -> List[int]:
        """Remove the rows (one call), then the columns (one call), of the jobs not in ``jobs``.

        Returns the departed jobs in the order they came.
        """
        handles = self._handles
        gone = handles.keys() - jobs.keys()
        if not gone:
            return []
        departed = [job_id for job_id in handles if job_id in gone]
        program = self._program
        program.remove_constraints([row for job_id in departed for row in handles.pop(job_id)])
        if self._column is not None:
            program.release_variables([self._columns.pop(job_id) for job_id in departed])
        for job_id in departed:
            del self.encoded[job_id]
        self._layout = None
        return departed

    def write(self, entries: Iterable[Tuple[int, Encoding]], layout: Layout) -> None:
        """Add the new jobs' rows (one call), rewrite those whose encoding moved (one call).

        ``entries`` are ``(job id, encoding)`` in the matrix's job order; a
        job whose encoding is unchanged is left as it is.
        """
        handles = self._handles
        encoded = self.encoded
        added: List[Tuple[int, Encoding]] = []
        rewritten: List[Tuple[int, Encoding]] = []
        for job_id, encoding in entries:
            if job_id not in handles:
                added.append((job_id, encoding))
            elif encoded[job_id][0] is not encoding[0] or encoded[job_id][1:] != encoding[1:]:
                rewritten.append((job_id, encoding))
        program = self._program
        if added:
            job_ids = [job_id for job_id, _encoding in added]
            if self._column is not None:
                made = program.add_variables_from_arrays(len(added), upper=0.0, name=self._column)
                self._columns.update(zip(job_ids, made.tolist()))
            kinds = _row_kinds(added, self._owned(job_ids), layout)
            if handles:
                new = program.add_constraints_from_arrays(*_job_major(kinds), *self._bounds)
            else:
                new = np.column_stack(
                    [program.add_constraints_from_arrays(*kind, *self._bounds) for kind in kinds]
                )
            handles.update(zip(job_ids, map(tuple, new.reshape(len(added), -1).tolist())))
            encoded.update(added)
            self._layout = None
        if rewritten:
            job_ids = [job_id for job_id, _encoding in rewritten]
            program.set_constraints_coefficients_from_arrays(
                [handle for job_id in job_ids for handle in handles[job_id]],
                *_job_major(_row_kinds(rewritten, self._owned(job_ids), layout)),
            )
            encoded.update(rewritten)

    def layout(self, job_ids: Tuple[int, ...]) -> Tuple[np.ndarray, ...]:
        """``(handles, bound slots, own columns)`` of ``job_ids`` in that order.

        Handles and slots have one column per row kind; the own columns are
        empty unless the family has them.
        """
        cached = self._layout
        if cached is None or (cached[0] is not job_ids and cached[0] != job_ids):
            size = len(job_ids)
            handles = np.array([self._handles[job_id] for job_id in job_ids], np.int64)
            handles = handles.reshape(size, self._per_job)
            slots = self._program.constraint_slots(handles.ravel()).reshape(handles.shape)
            self._layout = cached = (job_ids, (handles, slots, self._owned(job_ids)))
        return cached[1]

    def _owned(self, job_ids: Iterable[int]) -> np.ndarray:
        """The own columns of ``job_ids`` in that order (none if the family has none)."""
        if self._column is None:
            return np.empty(0, np.int64)
        return np.fromiter(map(self._columns.__getitem__, job_ids), np.int64)


def _row_kinds(
    entries: List[Tuple[int, Encoding]], columns: np.ndarray, layout: Layout
) -> List[_Triplet]:
    """One ``(rows, cols, coeffs)`` triplet per row kind of ``entries``, jobs in order.

    A kind with a ``column`` ends each job's row in ``value * x[column]``.
    An event rewrites a row or two, so what every kind shares (the ordinals
    and, for the kinds with a column, where the terms and the last terms go)
    is made once.
    """
    terms = [encoding[0] for _job_id, encoding in entries]
    size = len(terms)
    lengths = np.fromiter(map(len, map(itemgetter(0), terms)), np.int64, size)
    cols = np.concatenate([cols for cols, _vals in terms])
    vals = np.concatenate([vals for _cols, vals in terms])
    ordinals = np.arange(size, dtype=np.int64)
    rows = np.repeat(ordinals, lengths)
    placed: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    kinds: List[_Triplet] = []
    job_ids = [job_id for job_id, _encoding in entries]
    for factors, column, value in layout(job_ids, [encoding for _id, encoding in entries], columns):
        coeffs = vals if factors is None else vals * np.asarray(factors)[rows]
        if column is None:
            kinds.append((rows, cols, coeffs))
            continue
        if placed is None:
            # A job's terms move right by one place per job before it; its last term follows them.
            placed = (
                np.arange(len(cols)) + rows,
                np.cumsum(lengths) + ordinals,
                np.repeat(ordinals, lengths + 1),
            )
        term_positions, last_positions, with_rows = placed
        all_cols = np.empty(len(with_rows), dtype=np.int64)
        all_coeffs = np.empty(len(with_rows))
        all_cols[term_positions] = cols
        all_coeffs[term_positions] = coeffs
        all_cols[last_positions] = column
        all_coeffs[last_positions] = value
        kinds.append((with_rows, all_cols, all_coeffs))
    return kinds


def _job_major(kinds: List[_Triplet]) -> _Triplet:
    """The row kinds' triplets as one, job by job: job ``j``'s kind ``r`` is row ``j * k + r``."""
    if len(kinds) == 1:
        return kinds[0]
    rows = np.concatenate([rows * len(kinds) + kind for kind, (rows, _c, _v) in enumerate(kinds)])
    order = np.argsort(rows, kind="stable")
    return (
        rows[order],
        np.concatenate([cols for _rows, cols, _coeffs in kinds])[order],
        np.concatenate([coeffs for _rows, _cols, coeffs in kinds])[order],
    )


class IncrementalLPSession(IncrementalProgramSession):
    """Session for :class:`~repro.core.policy.OptimizationPolicy` subclasses.

    The decision variables and Section 3.1 validity constraints live across
    solves; only the policy objective (tagged ``objective``) is torn down and
    rebuilt each round, reusing cached per-job throughput terms for every
    job whose rows did not change.
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


#: Relative step at which the scalar Newton of
#: :meth:`RequirementCurves.dual_root` has converged, and its iteration
#: cap (it takes a handful; a root it has not reached by then is not used).
_NEWTON_TOLERANCE = 1e-12
_NEWTON_STEPS = 50
#: Scaling solves one re-allocation may take before the session gives up
#: (measured: 4 at most at the default tolerance; the bracket safeguard on
#: its own needs about ``log2(1 / tolerance)``).
_MAX_SCALING_SOLVES = 64


class RequirementCurves:
    """The per-job requirement curves of one minimum-scalar problem.

    Makespan and finish-time fairness both ask for the smallest ``theta``
    such that some valid allocation gives every job ``m`` at least

        ``r_m(theta) = steps_m / budget_m(theta)``,
        ``budget_m(theta) = theta * reference_m - (1 - theta) * elapsed_m``

    — ``budget_m`` being the seconds the job may still take at ``theta``.
    Finish-time fairness has ``reference_m = steps_m / throughput(m,
    X^isolated)``, which makes ``budget_m = theta * D_m - t_m`` with ``D_m =
    t_m + reference_m`` the isolated finish time (written so that nothing
    cancels at ``theta = 1``); makespan is the case ``elapsed_m = 0``,
    ``reference_m = 1``.  Right of its pole ``elapsed_m / (elapsed_m +
    reference_m)`` each curve is positive, convex and decreasing; a job with
    no steps left requires nothing at any ``theta``.  Arrays are aligned with
    the matrix's job order; ``start`` is the first candidate a solve tries.
    """

    def __init__(
        self, steps: np.ndarray, elapsed: np.ndarray, reference: np.ndarray, start: float
    ) -> None:
        self.steps = steps
        self.elapsed = elapsed
        self.reference = reference
        self.start = start
        #: Jobs with steps left: the only ones that require anything.
        self._working = steps > 0
        spans = elapsed + reference
        #: ``elapsed_m + reference_m`` where positive (1 elsewhere: only a job
        #: with neither steps nor history has none, and it constrains nothing).
        self._spans = np.where(spans > 0, spans, 1.0)

    @property
    def floor(self) -> float:
        """What no allocation beats: the largest ``elapsed_m / (elapsed_m + reference_m)``."""
        return float(np.max(self.elapsed / self._spans))

    def required(self, theta: float) -> np.ndarray:
        """``r_m(theta)`` per job, for a ``theta`` right of every working job's pole."""
        budgets = theta * self.reference - (1.0 - theta) * self.elapsed
        return self.steps / np.where(self._working, budgets, 1.0)

    def achieved(self, throughputs: np.ndarray) -> float:
        """The ``theta`` an allocation with these effective throughputs achieves.

        ``max_m (elapsed_m + steps_m / throughput_m) / (elapsed_m +
        reference_m)``; infinite when a job with steps left gets no throughput.
        """
        with np.errstate(divide="ignore"):
            remaining = self.steps / np.where(self._working, np.maximum(throughputs, 0.0), 1.0)
        return float(np.max((self.elapsed + remaining) / self._spans))

    def dual_root(self, weights: np.ndarray, scale: float, theta: float) -> float:
        """The lower bound one scaling solve at ``theta`` certifies (``-inf``: none).

        ``weights`` are the job rows' multipliers ``lambda_m >= 0`` and
        ``scale`` the optimal ``y``.  By weak duality every achievable
        ``theta'`` has ``g(theta') <= scale * g(theta)`` for ``g(x) = sum_m
        lambda_m r_m(x)`` (see :class:`ThroughputRequirementSession`), so the
        root of ``g(x) = scale * g(theta)`` bounds the optimum from below.
        Newton runs on ``1 / g``, which is increasing and *concave* (a
        weighted harmonic mean of the increasing affine budgets): from the
        left of the root the iterates increase towards it, every one a valid
        bound; from the right one step lands left of it, and a step past the
        rightmost pole is cut back half-way.  Where all poles coincide
        (makespan) ``1 / g`` is linear and the first step is exact.
        """
        mass = weights * self.steps
        active = mass > 0
        if not active.any() or not scale > 0:
            return -math.inf
        mass, elapsed, reference = mass[active], self.elapsed[active], self.reference[active]
        spans = self._spans[active]
        pole = float(np.max(elapsed / spans))

        def reciprocal(point: float) -> Tuple[float, float]:
            """``1 / g`` and its derivative at ``point``."""
            budgets = point * reference - (1.0 - point) * elapsed
            terms = mass / budgets
            total = float(np.sum(terms))
            return 1.0 / total, float(np.sum(terms * spans / budgets)) / (total * total)

        point = theta
        value, slope = reciprocal(point)
        target = value / scale
        for _ in range(_NEWTON_STEPS):
            step = point - (value - target) / slope
            if step <= pole:
                step = 0.5 * (pole + point)
            if abs(step - point) <= _NEWTON_TOLERANCE * abs(point):
                return point
            point = step
            value, slope = reciprocal(point)
        return -math.inf


def steps_and_isolated_throughputs(
    problem: PolicyProblem, matrix: ThroughputMatrix
) -> Tuple[np.ndarray, np.ndarray]:
    """Per job of ``matrix``, in its job order: steps left and ``throughput(m, X^isolated)``.

    What both requirement families are built from; the isolated throughputs
    of all jobs come from one pass over the matrix's singleton block.
    """
    job_ids = matrix.job_ids
    size = len(job_ids)
    steps = np.fromiter((problem.remaining_steps(job_id) for job_id in job_ids), float, size)
    scales = np.fromiter((problem.scale_factor(job_id) for job_id in job_ids), float, size)
    return steps, isolated_reference_throughputs(matrix, problem.cluster_spec, scales)


def _requirement_rows(
    _job_ids: List[int], _encoded: List[Encoding], _columns: np.ndarray
) -> List[RowKind]:
    """A requirement row is the job's throughput terms as they are."""
    return [(None, None, 0.0)]


def _align_requirement_rows(
    rows: JobRows, variables: AllocationVariables, revision: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Align one program's ``throughput(m, X) >= lower_m`` rows with its variables' snapshot.

    A new job's row has lower bound 0 until the caller sets it, and a row is
    rewritten when its terms moved — among the jobs the variables' updates
    touched since ``revision``.  A rewrite writes the throughput terms only,
    so a caller that keeps an extra column in the rows (the scaling
    program's ``y``) writes it again afterwards.  Returns the variables'
    ``(starts, cols, vals)`` blocks: job ``k`` of the matrix's order owns
    ``cols[starts[k]:starts[k + 1]]``.
    """
    jobs = variables.problem.jobs
    rows.remove_departed(jobs)
    _ids, starts, cols, vals = variables.effective_throughput_blocks()
    touched = variables.touched_since(revision)
    candidates = (
        sorted(job_id for job_id in touched if job_id in jobs)
        if rows and touched is not None
        else variables.matrix.job_ids
    )
    rows.write(
        ((job_id, (variables.effective_throughput_terms(job_id),)) for job_id in candidates),
        _requirement_rows,
    )
    return starts, cols, vals


class ThroughputRequirementSession(IncrementalProgramSession):
    """Base session of the minimum-scalar policies (makespan, finish-time fairness).

    Both are ``min theta`` subject to ``throughput(m, X) >= r_m(theta)`` for
    every job and ``X`` valid, with ``r_m`` decreasing in ``theta``
    (:class:`RequirementCurves`; subclasses supply the curves through
    :meth:`_requirements`).  Instead of bracketing ``theta`` blindly with one
    feasibility LP per candidate, the session keeps **two** persistent
    programs and lets every LP certify a bound on each side:

    * the *scaling* program — ``max y`` subject to ``throughput(m, X) -
      r_m(theta_k) * y >= 0`` over its own :class:`AllocationVariables`.  A
      candidate ``theta_k`` is written into the ``y`` column
      (:meth:`~repro.solver.lp.LinearProgram.set_column_coefficients_from_arrays`),
      and one solve yields **(U)** a primal bound: the ``theta`` its own
      allocation ``X_k`` achieves is achievable, so the optimum is ``<= U``;
      and **(L)** a dual bound: with ``lambda >= 0`` the job rows'
      multipliers, LP duality gives ``sum_m lambda_m r_m(theta_k) = 1`` and
      ``y_k = max_X sum_m lambda_m throughput(m, X)``, hence for any ``theta``
      that some valid ``X`` achieves

          ``sum_m lambda_m r_m(theta) <= sum_m lambda_m throughput(m, X)
          <= y_k * sum_m lambda_m r_m(theta_k)``  (weak duality).

      The left side decreases in ``theta``, so its root ``L`` — a scalar
      Newton, no LP — is a lower bound, tangent to the true value function at
      ``theta_k``.  Makespan's curves are multiplicative (``r_m = steps_m /
      M``), so ``L = U = M_k / y_k`` after one LP from any start;
    * the *witness* program — rows ``throughput(m, X) >= r_m(U)``, objective
      total throughput, which is what keeps the cluster busy.  It is solved
      once per re-allocation, at the certified ``U``, and it alone extracts
      an :class:`~repro.core.allocation.Allocation`.

    The iteration is ``theta_{k+1} = L * (1 + tolerance / 4)`` — just right of
    the tangent root, where a feasible solve closes the bracket — until ``U -
    L <= relative_tolerance * U``.  *Safeguard:* a step that fails to halve
    ``[L, U]`` (or duals that say nothing: ``L`` still at the a-priori floor)
    is followed by a solve at the midpoint, which halves the bracket whatever
    its duals are — ``y >= 1`` makes the midpoint achievable, ``y < 1`` not —
    so the loop terminates like a bisection of the certified bracket even if
    every dual bound were useless.  :attr:`last_bracket` exposes ``(L, U)`` of
    the latest solve.

    Why two programs: each keeps the basis that is optimal for *its own*
    objective (the water-filling level / detection split of
    :mod:`repro.core.water_filling`).  A witness solved on the scaling
    program would hand the next scaling LP a total-throughput vertex, and the
    other way round; apart, every solve after a program's first starts warm
    and the scaling LPs of one re-allocation differ by one column.  Every
    re-allocation starts from the curves' own ``start`` rather than from the
    previous optimum, so besides the two programs the session carries no
    state from one re-allocation to the next but the two bases (which a
    restored program's rebuilt model holds, see ``ClusterScheduler.restore``).  A
    :class:`~repro.exceptions.SolverError` from either program propagates
    (never read as "infeasible") and drops that program's live model only.
    """

    def __init__(self, policy: Policy, problem: PolicyProblem, relative_tolerance: float) -> None:
        if not relative_tolerance > 0:
            raise ConfigurationError("relative_tolerance must be positive")
        super().__init__(policy, problem, LinearProgram(name=policy.display_name))
        self._relative_tolerance = relative_tolerance
        self._witness_rows = JobRows(self._program, lower=0.0)
        self._scaling_program = LinearProgram(name="throughput_scaling")
        self._scaling_variables = AllocationVariables(
            problem, self._variables.matrix, self._scaling_program
        )
        self._scaling_rows = JobRows(self._scaling_program, lower=0.0)
        #: The two variables' revisions at the last alignment (witness, scaling).
        self._revisions = (self._variables.revision, self._scaling_variables.revision)
        #: The scaling variables' ``(starts, cols, vals)`` blocks as of the last alignment.
        self._scaling_blocks: Tuple[np.ndarray, np.ndarray, np.ndarray]
        self._scale = self._scaling_program.add_variable(name="y")
        self._scaling_program.set_objective_from_arrays([self._scale.index], [1.0], maximize=True)
        self._bracket: Optional[Tuple[float, float]] = None

    @property
    def scaling_program(self) -> LinearProgram:
        """The live ``max y`` program (exposed for tests and diagnostics)."""
        return self._scaling_program

    def programs(self) -> Iterator[LinearProgram]:
        yield from (self._program, self._scaling_program)

    @property
    def last_bracket(self) -> Optional[Tuple[float, float]]:
        """``(L, U)`` certified by the latest solve: ``L <= optimum <= U``, ``U`` witnessed."""
        return self._bracket

    @abc.abstractmethod
    def _requirements(self, problem: PolicyProblem) -> RequirementCurves:
        """The policy's requirement curves for ``problem``, in the matrix's job order."""

    def _prepare(self, problem: PolicyProblem) -> None:
        self._sync(problem)
        matrix = self._variables.matrix
        scaling = self._scaling_variables
        if scaling.problem is not problem or scaling.matrix is not matrix:
            scaling.update_to(problem, matrix)
        witness, revision = self._revisions
        self._scaling_blocks = _align_requirement_rows(self._scaling_rows, scaling, revision)
        _starts, cols, vals = _align_requirement_rows(self._witness_rows, self._variables, witness)
        self._revisions = (self._variables.revision, scaling.revision)
        # Among the allocations that meet the requirements the witness
        # prefers higher total throughput, which keeps the cluster busy.
        self._program.set_objective_from_arrays(cols, vals, maximize=True)

    def _solve_scaling(self, required: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray]:
        """One scaling LP: ``(y, throughputs of its allocation, job-row multipliers)``."""
        handles = self._scaling_rows.layout(self._scaling_variables.matrix.job_ids)[0][:, 0]
        self._scaling_program.set_column_coefficients_from_arrays(self._scale, handles, -required)
        solution = self._scaling_program.solve()
        # Maximizing against ``>=`` rows: the duals are ``<= 0`` (lp.Solution.row_duals).
        weights = np.maximum(-solution.row_duals(handles), 0.0)
        starts, cols, vals = self._scaling_blocks
        throughputs = np.add.reduceat(vals * solution.values[cols], starts[:-1])
        return solution.objective_value, throughputs, weights

    def _certify(self, requirements: RequirementCurves) -> Tuple[float, float]:
        """Close ``[L, U]`` around the optimum to the policy's relative tolerance."""
        tolerance = self._relative_tolerance
        floor = requirements.floor
        if not requirements.steps.any():
            # Nothing is required of anybody: every allocation achieves the floor.
            return floor, floor
        lower, upper = floor, math.inf
        candidate = requirements.start
        for _ in range(_MAX_SCALING_SOLVES):
            scale, throughputs, weights = self._solve_scaling(requirements.required(candidate))
            width = upper - lower
            upper = min(upper, requirements.achieved(throughputs))
            if not math.isfinite(upper):
                raise InfeasibleError(
                    f"{self._program.name}: a job with steps left cannot make progress "
                    "on any accelerator type"
                )
            root = requirements.dual_root(weights, scale, candidate)
            lower = max(lower, root if scale >= 1.0 else max(root, candidate))
            if upper - lower <= tolerance * upper:
                return min(lower, upper), upper
            if upper - lower > 0.5 * width or lower <= floor:
                candidate = 0.5 * (lower + upper)
            else:
                candidate = lower * (1.0 + 0.25 * tolerance)
        raise SolverError(
            f"{self._program.name}: bracket [{lower:g}, {upper:g}] did not close "
            f"in {_MAX_SCALING_SOLVES} scaling solves"
        )

    def _solve(self, problem: PolicyProblem) -> Allocation:
        self._prepare(problem)
        requirements = self._requirements(problem)
        self._bracket = self._certify(requirements)
        self._program.set_constraint_bounds_from_arrays(
            self._witness_rows.layout(self._variables.matrix.job_ids)[0][:, 0],
            lower=requirements.required(self._bracket[1]),
        )
        return self._variables.extract_allocation(self._program.solve())
