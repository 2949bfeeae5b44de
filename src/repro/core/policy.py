"""Policy base classes and the LP scaffolding shared by all optimization policies.

A policy turns a :class:`~repro.core.problem.PolicyProblem` into an
:class:`~repro.core.allocation.Allocation`.  Most policies are optimization
problems over the allocation matrix ``X``; :class:`AllocationVariables` builds
the decision variables and the Section 3.1 validity constraints once so each
policy only has to express its objective.

Two entry points exist for computing allocations:

* :meth:`Policy.compute_allocation` — the stateless one-shot API; since the
  session redesign it is a thin wrapper that opens a fresh
  :class:`~repro.core.session.PolicySession` and solves once;
* :meth:`Policy.session` — the stateful API: the returned session keeps the
  policy's solver program alive across allocation recomputations, consuming
  :mod:`~repro.core.session` deltas (job arrivals/completions, estimate
  refinements) and editing only the dirty parts of the program.  This is
  what keeps per-recomputation policy work near-linear under churn
  (Section 7.5 / Figure 12).
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.problem import PolicyProblem
from repro.core.throughput_matrix import DenseRows, JobCombination, ThroughputMatrix
from repro.solver.lp import LinearExpression, LinearProgram, Solution, Variable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.session import PolicySession
    from repro.workloads.job import Job

__all__ = ["Policy", "OptimizationPolicy", "AllocationVariables"]


class Policy(abc.ABC):
    """A scheduling policy mapping cluster/job state to a target allocation."""

    #: Human-readable policy name used in experiment output.
    name: str = "policy"

    #: Problem-representation mode: ``"job"`` (one LP row per job, the
    #: reference baseline) or ``"type"`` (the LP is built over aggregation
    #: groups of interchangeable jobs and per-job shares are recovered by
    #: proportional split — see :mod:`repro.core.aggregation`).  Set by
    #: :func:`~repro.core.registry.make_policy` via the ``aggregation``
    #: option; a class attribute so existing constructors stay untouched.
    aggregation: str = "job"

    def __init__(self, heterogeneity_agnostic: bool = False, space_sharing: bool = False) -> None:
        self._heterogeneity_agnostic = heterogeneity_agnostic
        self._space_sharing = space_sharing

    @property
    def heterogeneity_agnostic(self) -> bool:
        """Whether the policy ignores per-accelerator performance differences."""
        return self._heterogeneity_agnostic

    @property
    def space_sharing(self) -> bool:
        """Whether the policy may allocate time to job-pair combinations."""
        return self._space_sharing

    @property
    def display_name(self) -> str:
        """Name annotated with the agnostic / space-sharing variants."""
        suffix = ""
        if self._heterogeneity_agnostic:
            suffix += " (het-agnostic)"
        if self._space_sharing:
            suffix += " +SS"
        return f"{self.name}{suffix}"

    def effective_matrix(self, problem: PolicyProblem) -> ThroughputMatrix:
        """The throughput matrix this policy actually optimizes over.

        Heterogeneity-agnostic policies see a flattened matrix in which every
        accelerator type looks identical for a given job; policies without
        space sharing only see the singleton rows.
        """
        matrix = problem.throughputs
        if not self._space_sharing and matrix.has_space_sharing():
            matrix = matrix.restrict_to_singletons()
        if self._heterogeneity_agnostic:
            matrix = matrix.heterogeneity_agnostic()
        return matrix

    def aggregation_group_key(self, job: "Job") -> Tuple[object, ...]:
        """Grouping key used by ``aggregation="type"`` solves.

        Jobs sharing a key are interchangeable *for this policy*: they may be
        collapsed into one representative LP/level row and recovered by an
        equal split.  The default is the free-standing
        :func:`~repro.core.aggregation.aggregation_key` — ``(job_type,
        scale_factor, priority_weight)``.  Policies whose objectives read
        extra per-job state refine the key (e.g. the hierarchical policy
        appends the entity so groups never straddle entity boundaries).
        """
        from repro.core.aggregation import aggregation_key

        return aggregation_key(job)

    def session(self, problem: PolicyProblem) -> "PolicySession":
        """Open a stateful allocation session seeded with ``problem``.

        When the policy runs in ``aggregation="type"`` mode and ``problem``
        is an ordinary per-job snapshot, the session returned is an
        :class:`~repro.core.aggregation.AggregatedSession` that collapses the
        problem into one row per group of interchangeable jobs, drives the
        policy's own session machinery over the small aggregated problem, and
        expands the result back to per-job shares.  Otherwise this dispatches
        to :meth:`_make_session`, which subclasses override to provide their
        incremental sessions.
        """
        if self.aggregation == "type" and problem.group_counts is None:
            from repro.core.aggregation import AggregatedSession

            return AggregatedSession(self, problem)
        return self._make_session(problem)

    def _make_session(self, problem: PolicyProblem) -> "PolicySession":
        """Build this policy's session (no aggregation dispatch).

        The default is a :class:`~repro.core.session.RebuildSession` that
        recomputes from scratch on every solve, so every policy supports the
        session API; policies with reusable solver state override this with
        an incremental session.
        """
        from repro.core.session import RebuildSession

        return RebuildSession(self, problem)

    @abc.abstractmethod
    def compute_allocation(self, problem: PolicyProblem) -> Allocation:
        """Compute the target allocation for the given problem."""

    def checkpoint_state(self) -> object:
        """What running this policy changes in it, as a snapshot keeps it (``None``: nothing)."""
        return None

    def restored(self, state: object) -> "Policy":
        """The policy a scheduler restored from a snapshot runs.

        ``state`` is what :meth:`checkpoint_state` returned at the snapshot.
        A policy that running does not change is shared as it is; one that
        it does returns a private copy holding ``state``.
        """
        return self

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.display_name!r})"


class AllocationVariables:
    """Decision variables ``X[combination, accelerator]`` plus validity constraints.

    Besides the one-shot construction used by ``compute_allocation``, the
    object supports **incremental resynchronisation** against a new problem
    snapshot (:meth:`update_to`): rows added or removed by job churn or
    estimate refinement translate into targeted variable/constraint edits on
    the owning program instead of a rebuild.  Per-job effective-throughput
    expressions are cached and invalidated only when one of the job's rows
    changes, which is what policy sessions lean on to rebuild objectives
    cheaply.

    Every row family is emitted as one ndarray block through the program's
    columnar API — one bulk variable allocation, one constraint block per
    validity family — straight from :meth:`ThroughputMatrix.dense_rows`.
    """

    def __init__(
        self,
        problem: PolicyProblem,
        matrix: ThroughputMatrix,
        program: LinearProgram,
    ) -> None:
        self._problem = problem
        self._matrix = matrix
        self._program = program
        #: Group sizes when the problem is type-aggregated (empty otherwise):
        #: per-job validity right-hand sides become the group size and
        #: variable upper bounds the row's group-size cap, so one variable
        #: carries a group-*total* allocation.
        self._counts: Dict[int, int] = dict(problem.group_counts or {})
        #: Per-combination variable-index arrays (one column index per type).
        self._row_vars: Dict[JobCombination, np.ndarray] = {}
        self._num_columns = len(matrix.registry)
        self._job_constraints: Dict[int, int] = {}
        self._capacity_constraints: List[int] = []
        self._row_values: Dict[JobCombination, np.ndarray] = {}
        self._throughput_cache: Dict[int, LinearExpression] = {}
        self._throughput_terms_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        #: (num_rows, num_columns) variable-index matrix, row-aligned with
        #: ``matrix.dense_rows()``, for the whole-program columnar builders.
        self._var_matrix: np.ndarray
        self._create_rows()

    # -- group-count helpers ---------------------------------------------------------
    def job_count(self, job_id: int) -> int:
        """Group size behind ``job_id`` (1 in ordinary per-job problems)."""
        return self._counts.get(job_id, 1)

    def _row_cap(self, combination: JobCombination) -> float:
        """Upper bound for one row's variables: min group size over its jobs."""
        if not self._counts:
            return 1.0
        return float(min(self._counts.get(job_id, 1) for job_id in set(combination)))

    def _row_caps_vector(self, dense: DenseRows) -> np.ndarray:
        """Per-row variable caps for the columnar path, aligned to ``dense``."""
        if not self._counts:
            return np.ones(len(dense.combinations))
        counts_by_ordinal = np.fromiter(
            (self._counts.get(job_id, 1) for job_id in dense.job_ids.tolist()),
            dtype=float,
            count=len(dense.job_ids),
        )
        return np.minimum.reduceat(
            counts_by_ordinal[dense.member_ordinals], dense.offsets[:-1]
        )

    # -- construction ---------------------------------------------------------------
    def _row_scales(self, dense: DenseRows) -> np.ndarray:
        """Per-row worker scale: max scale factor over the row's jobs."""
        scale_by_job = np.fromiter(
            (self._problem.scale_factor(job_id) for job_id in dense.job_ids.tolist()),
            dtype=float,
            count=len(dense.job_ids),
        )
        return np.maximum.reduceat(scale_by_job[dense.member_ordinals], dense.offsets[:-1])

    def _create_rows(self) -> None:
        """Emit all variables and validity constraints as ndarray blocks."""
        program = self._program
        dense = self._matrix.dense_rows()
        num_columns = self._num_columns
        combinations = dense.combinations
        num_rows = len(combinations)
        caps = self._row_caps_vector(dense)
        flat = program.add_variables_from_arrays(
            num_rows * num_columns,
            lower=0.0,
            upper=(dense.runnable.astype(float) * caps[:, None]).ravel(),
            name="x",
        )
        var_matrix = flat.reshape(num_rows, num_columns)
        self._var_matrix = var_matrix
        offsets = dense.offsets
        values = dense.values
        row_vars = self._row_vars
        row_values = self._row_values
        for ordinal, combination in enumerate(combinations):
            row_vars[combination] = var_matrix[ordinal]
            row_values[combination] = values[offsets[ordinal] : offsets[ordinal + 1]]

        # (2) one row per job: coefficient 1 on every variable of every row
        # containing the job, emitted in rows-containing x column order (a
        # same-group pair row contributes two members, i.e. coefficient 2
        # after sparse assembly sums the duplicates); the right-hand side is
        # the job's group size (1 in ordinary per-job problems).
        member_rows_grouped = dense.member_rows[dense.members_by_job]
        job_cols = var_matrix[member_rows_grouped]
        counts = np.diff(dense.job_starts) * num_columns
        num_jobs = len(dense.job_ids)
        rhs = (
            np.fromiter(
                (self._counts.get(job_id, 1) for job_id in dense.job_ids.tolist()),
                dtype=float,
                count=num_jobs,
            )
            if self._counts
            else np.ones(num_jobs)
        )
        handles = program.add_constraints_from_arrays(
            np.repeat(np.arange(num_jobs, dtype=np.int64), counts),
            job_cols.ravel(),
            np.ones(job_cols.size),
            -math.inf,
            rhs,
        )
        self._job_constraints = dict(
            zip(dense.job_ids.tolist(), (int(handle) for handle in handles))
        )

        # (3) one row per worker type, scale-factor coefficients per matrix row.
        row_scales = self._row_scales(dense)
        capacity = self._problem.cluster_spec.counts_vector()
        capacity_handles = program.add_constraints_from_arrays(
            np.repeat(np.arange(num_columns, dtype=np.int64), num_rows),
            var_matrix.T.ravel(),
            np.tile(row_scales, num_columns),
            -math.inf,
            np.asarray(capacity, dtype=float),
        )
        self._capacity_constraints = [int(handle) for handle in capacity_handles]

    def _invalidate_job(self, job_id: int) -> None:
        self._throughput_cache.pop(job_id, None)
        self._throughput_terms_cache.pop(job_id, None)

    # -- incremental resynchronisation ---------------------------------------------
    def update_to(self, problem: PolicyProblem, matrix: ThroughputMatrix) -> None:
        """Re-align variables and validity constraints with a new snapshot.

        Only the difference against the previous matrix is applied: new
        combinations gain variables and constraint terms (appended as whole
        row blocks in one columnar call), vanished ones are
        scrubbed and their variables released back to the program, and
        persisting rows whose throughput values changed (estimate
        refinements) get their runnable bounds refreshed.  Cached throughput
        expressions of every affected job are invalidated.
        """
        previous_cluster = self._problem.cluster_spec
        previous_counts = self._counts
        self._problem = problem
        self._counts = dict(problem.group_counts or {})
        changed_counts = {
            job_id
            for job_id in set(previous_counts) | set(self._counts)
            if previous_counts.get(job_id, 1) != self._counts.get(job_id, 1)
        }
        if problem.cluster_spec is not previous_cluster:
            capacity = problem.cluster_spec.counts_vector()
            for column, handle in enumerate(self._capacity_constraints):
                self._program.set_constraint_bounds(handle, upper=float(capacity[column]))
        # Both snapshots list their rows sorted, so the rows present in both
        # line up once each side is masked down to them.
        old_dense = self._matrix.dense_rows()
        new_dense = matrix.dense_rows()
        new_combinations = set(new_dense.combinations)
        stays = np.fromiter(
            (combination in new_combinations for combination in old_dense.combinations),
            dtype=bool,
            count=len(old_dense.combinations),
        )
        stayed = np.fromiter(
            (combination in self._row_vars for combination in new_dense.combinations),
            dtype=bool,
            count=len(new_dense.combinations),
        )

        # Sorted: removal order decides variable-recycling order, which decides
        # the column layout later inserts reuse.
        for row in np.flatnonzero(~stays).tolist():
            self._remove_combination(old_dense.combinations[row])

        # Persisting rows: one stacked comparison finds the rows whose values
        # changed (refined pair estimates).
        stayed_members = np.repeat(stayed, new_dense.sizes)
        differs = (
            old_dense.values[np.repeat(stays, old_dense.sizes)]
            != new_dense.values[stayed_members]
        ).any(axis=1)
        for row in np.unique(new_dense.member_rows[stayed_members][differs]).tolist():
            combination = new_dense.combinations[row]
            self._row_values[combination] = new_dense.values[
                new_dense.offsets[row] : new_dense.offsets[row + 1]
            ]
            self._program.set_variable_bounds_from_arrays(
                self._row_vars[combination],
                0.0,
                new_dense.runnable[row].astype(float) * self._row_cap(combination),
            )
            for job_id in combination:
                self._invalidate_job(job_id)

        self._matrix = matrix
        var_matrix = np.empty((len(stayed), self._num_columns), dtype=np.int64)
        var_matrix[stayed] = self._var_matrix[stays]
        added = [new_dense.combinations[row] for row in np.flatnonzero(~stayed).tolist()]
        if added:
            var_matrix[~stayed] = self._insert_combinations(added)
        self._var_matrix = var_matrix

        # Jobs that vanished entirely: drop their (now vacuous) constraints.
        active_jobs = set(matrix.job_ids)
        for job_id in list(self._job_constraints):
            if job_id not in active_jobs:
                self._program.remove_constraint(self._job_constraints.pop(job_id))
                self._invalidate_job(job_id)
        if changed_counts:
            self._resync_counts(changed_counts)

    def _resync_counts(self, changed_jobs: set) -> None:
        """Refresh rhs/bounds after aggregation-group sizes moved.

        Per-job validity right-hand sides of the affected representatives are
        reset to the new group size, and the variable caps of every persisting
        row touching one of them are recomputed (rows inserted this update
        already used the new counts).
        """
        touched_rows: Dict[JobCombination, None] = {}
        for job_id in sorted(changed_jobs):
            handle = self._job_constraints.get(job_id)
            if handle is not None:
                self._program.set_constraint_bounds(
                    handle, upper=float(self.job_count(job_id))
                )
            if job_id in self._matrix.job_ids:
                for combination, _position in self._matrix.rows_containing(job_id):
                    touched_rows.setdefault(combination)
        for combination in touched_rows:
            indices = self._row_vars.get(combination)
            if indices is None:
                continue
            runnable = (self._row_values[combination] > 0).any(axis=0)
            self._program.set_variable_bounds_from_arrays(
                indices, 0.0, runnable.astype(float) * self._row_cap(combination)
            )

    def _insert_combinations(self, combinations: Sequence[JobCombination]) -> np.ndarray:
        """Batch insert of new matrix rows (sorted), one columnar call per family.

        Bulk allocation consumes the recycled-index pool in removal order, so
        the column layout is a deterministic function of the churn sequence.
        Returns the new rows' variable indices, one row per combination.
        """
        program = self._program
        dense = self._matrix.dense_rows()
        num_columns = self._num_columns
        num_new = len(combinations)
        ordinal_of = {c: r for r, c in enumerate(dense.combinations)}
        rows = np.fromiter(
            (ordinal_of[combination] for combination in combinations),
            dtype=np.int64,
            count=num_new,
        )
        runnable = dense.runnable[rows]
        caps = self._row_caps_vector(dense)[rows]
        var_new = program.add_variables_from_arrays(
            num_new * num_columns,
            lower=0.0,
            upper=(runnable.astype(float) * caps[:, None]).ravel(),
            name="x",
        ).reshape(num_new, num_columns)
        offsets = dense.offsets
        for position, combination in enumerate(combinations):
            self._row_vars[combination] = var_new[position]
            row = rows[position]
            self._row_values[combination] = dense.values[offsets[row] : offsets[row + 1]]
        row_scales = np.fromiter(
            (
                float(max(self._problem.scale_factor(job_id) for job_id in combination))
                for combination in combinations
            ),
            dtype=float,
            count=num_new,
        )
        for column in range(num_columns):
            program.add_terms_to_constraint_from_arrays(
                self._capacity_constraints[column], var_new[:, column], row_scales
            )
        # Job constraints: group the new rows per job in first-occurrence
        # order, which fixes the order of new-constraint handles.
        rows_by_job: Dict[int, List[int]] = {}
        for position, combination in enumerate(combinations):
            for job_id in combination:
                rows_by_job.setdefault(job_id, []).append(position)
        new_jobs: List[Tuple[int, np.ndarray]] = []
        for job_id, positions in rows_by_job.items():
            cols = var_new[positions].ravel()
            handle = self._job_constraints.get(job_id)
            if handle is None:
                new_jobs.append((job_id, cols))
            else:
                program.add_terms_to_constraint_from_arrays(handle, cols, np.ones(len(cols)))
            self._invalidate_job(job_id)
        if new_jobs:
            lengths = [len(cols) for _, cols in new_jobs]
            handles = program.add_constraints_from_arrays(
                np.repeat(np.arange(len(new_jobs), dtype=np.int64), lengths),
                np.concatenate([cols for _, cols in new_jobs]),
                np.ones(int(np.sum(lengths))),
                -math.inf,
                np.asarray([float(self.job_count(job_id)) for job_id, _ in new_jobs]),
            )
            for (job_id, _), handle in zip(new_jobs, handles):
                self._job_constraints[job_id] = int(handle)
        return var_new

    def _remove_combination(self, combination: JobCombination) -> None:
        indices = self._row_vars.pop(combination)
        index_list = indices.tolist()
        for job_id in dict.fromkeys(combination):
            handle = self._job_constraints.get(job_id)
            if handle is not None:
                self._program.remove_terms_from_constraint(handle, index_list)
            self._invalidate_job(job_id)
        for column, index in enumerate(index_list):
            self._program.remove_terms_from_constraint(
                self._capacity_constraints[column], [index]
            )
            self._program.release_variable(index)
        del self._row_values[combination]

    # -- accessors -------------------------------------------------------------------
    @property
    def matrix(self) -> ThroughputMatrix:
        return self._matrix

    @property
    def problem(self) -> PolicyProblem:
        return self._problem

    def variable(self, combination: Sequence[int], accelerator: "str | int") -> Variable:
        key = tuple(sorted(int(j) for j in combination))
        column = (
            accelerator
            if isinstance(accelerator, int)
            else self._matrix.registry.index_of(accelerator)
        )
        index = int(self._row_vars[key][column])
        return Variable(index=index, name=f"x[{key},{self._matrix.registry.names[column]}]")

    def effective_throughput_terms(self, job_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """``throughput(job_id, X)`` as parallel (column, coefficient) arrays.

        Zero coefficients are included (the columnar constraint API filters
        them at ingestion).  The same tuple object is returned on cache hits
        until one of the job's rows changes — callers use its identity the
        way they use :meth:`effective_throughput_expression`'s, and must not
        mutate the arrays.
        """
        cached = self._throughput_terms_cache.get(job_id)
        if cached is None:
            rows = self._matrix.rows_containing(job_id)
            cols = np.concatenate([self._row_vars[combination] for combination, _ in rows])
            vals = np.concatenate(
                [self._row_values[combination][position] for combination, position in rows]
            )
            cached = (cols, vals)
            self._throughput_terms_cache[job_id] = cached
        return cached

    def effective_throughput_blocks(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Columnar effective-throughput terms for *every* job in one pass.

        Returns ``(job_ids, starts, cols, vals)``: the terms of
        ``job_ids[k]`` are ``cols[starts[k]:starts[k+1]]`` /
        ``vals[starts[k]:starts[k+1]]``, ordered exactly like the per-job
        expressions (rows containing the job, then accelerator columns), with
        zero coefficients included.  Also primes the per-job term cache, so a
        later :meth:`effective_throughput_terms` hit returns slices of these
        arrays.
        """
        dense = self._matrix.dense_rows()
        member_order = dense.members_by_job
        cols = self._var_matrix[dense.member_rows[member_order]].reshape(-1)
        vals = dense.values[member_order].reshape(-1)
        counts = np.diff(dense.job_starts) * self._num_columns
        starts = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        cache = self._throughput_terms_cache
        for position, job_id in enumerate(dense.job_ids.tolist()):
            if job_id not in cache:
                cache[job_id] = (
                    cols[starts[position] : starts[position + 1]],
                    vals[starts[position] : starts[position + 1]],
                )
        return dense.job_ids, starts, cols, vals

    @staticmethod
    def rows_with_column(
        starts: np.ndarray,
        cols: np.ndarray,
        coeffs: np.ndarray,
        column: "int | np.ndarray",
        value: "float | np.ndarray",
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One row per job from throughput blocks, each ending in ``value * x[column]``.

        ``starts`` / ``cols`` come from :meth:`effective_throughput_blocks`
        and ``coeffs`` are the (already scaled) coefficients aligned with
        ``cols``; ``column`` / ``value`` are one scalar shared by every row (an
        epigraph variable) or one entry per job (water-filling's detection
        indicators).  Returns the ``(rows, cols, coeffs)`` triplet
        ``add_constraints_from_arrays`` takes — the shape of every epigraph
        row family (``t <= scale_m * throughput(m, X)``, water-filling level
        rows).
        """
        num_jobs = len(starts) - 1
        total = len(cols)
        ordinals = np.arange(num_jobs, dtype=np.int64)
        extra_positions = starts[1:] + ordinals
        term_mask = np.ones(total + num_jobs, dtype=bool)
        term_mask[extra_positions] = False
        all_rows = np.empty(total + num_jobs, dtype=np.int64)
        all_cols = np.empty(total + num_jobs, dtype=np.int64)
        all_coeffs = np.empty(total + num_jobs)
        all_rows[term_mask] = np.repeat(ordinals, np.diff(starts))
        all_cols[term_mask] = cols
        all_coeffs[term_mask] = coeffs
        all_rows[extra_positions] = ordinals
        all_cols[extra_positions] = column
        all_coeffs[extra_positions] = value
        return all_rows, all_cols, all_coeffs

    def effective_throughput_expression(self, job_id: int) -> LinearExpression:
        """``throughput(job_id, X)`` as a linear expression over the variables.

        Expressions are cached per job until one of the job's rows changes;
        the *same* object is returned on cache hits, so callers must treat it
        as immutable (all :class:`LinearExpression` operators already do).
        """
        cached = self._throughput_cache.get(job_id)
        if cached is None:
            cols, vals = self.effective_throughput_terms(job_id)
            nonzero = vals != 0.0
            cached = LinearExpression.from_arrays(cols[nonzero], vals[nonzero])
            self._throughput_cache[job_id] = cached
        return cached

    def total_time_expression(self, combination: Sequence[int]) -> LinearExpression:
        """Total time fraction allocated to one combination across all accelerator types."""
        key = tuple(sorted(int(j) for j in combination))
        return LinearExpression.from_arrays(self._row_vars[key], np.ones(self._num_columns))

    def cost_expression(self) -> LinearExpression:
        """Time-averaged dollar cost of the allocation.

        Each combination row is charged once per accelerator (space-sharing
        jobs split one instance, so the cost is not double counted), scaled by
        the number of workers the combination occupies.
        """
        costs = self._matrix.registry.costs_per_hour()
        dense = self._matrix.dense_rows()
        coeffs = self._row_scales(dense)[:, None] * np.asarray(costs, dtype=float)[None, :]
        return LinearExpression.from_arrays(self._var_matrix.ravel(), coeffs.ravel())

    def extract_allocation(self, solution: Solution) -> Allocation:
        """Read the optimal variable values back into an :class:`Allocation`."""
        shares = solution.values[self._var_matrix]
        # Clean up LP round-off.  Group-total rows of a type-aggregated
        # problem may legitimately sit above 1, so only the lower bound is
        # enforced there.
        np.clip(shares, 0.0, None if self._counts else 1.0, out=shares)
        return Allocation.from_matrix(
            self._matrix.registry,
            self._matrix.dense_rows().combinations,
            shares,
            scale_factors=self._problem.scale_factors(),
        )


class OptimizationPolicy(Policy):
    """Base class for policies expressed as a single LP over :class:`AllocationVariables`."""

    def _make_session(self, problem: PolicyProblem) -> "PolicySession":
        from repro.core.session import IncrementalLPSession

        return IncrementalLPSession(self, problem)

    def compute_allocation(self, problem: PolicyProblem) -> Allocation:
        """One-shot allocation: a fresh session solved once."""
        return self.session(problem).solve(problem)

    @abc.abstractmethod
    def build_objective(
        self,
        problem: PolicyProblem,
        variables: AllocationVariables,
        program: LinearProgram,
    ) -> None:
        """Add the policy-specific objective (and extra constraints) to ``program``."""
