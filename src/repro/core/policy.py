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
from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.problem import PolicyProblem
from repro.core.throughput_matrix import DenseRows, ThroughputMatrix
from repro.exceptions import UnknownJobError
from repro.solver.lp import LinearProgram, Solution, Variable, summed_terms

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


#: Row keys pack a combination of at most two job ids below ``2**31`` into one
#: int64: ``first << 32``, plus ``second + 1`` for a pair, which orders keys
#: the way the matrix orders its (sorted) rows.
_KEY_SHIFT = 32


def _packed_keys(dense: DenseRows) -> Optional[np.ndarray]:
    """The rows' packed keys, in row order; ``None`` where a row does not fit the packing."""
    if dense.job_ids[-1] >= 1 << (_KEY_SHIFT - 1):
        return None
    if len(dense.member_jobs) == len(dense.sizes):  # singletons only
        return dense.job_ids << _KEY_SHIFT
    if dense.sizes.max() > 2:
        return None
    starts = dense.offsets[:-1]
    keys = dense.member_jobs[starts] << _KEY_SHIFT
    pairs = np.flatnonzero(dense.sizes == 2)
    keys[pairs] += dense.member_jobs[starts[pairs] + 1] + 1
    return keys


def _member_positions(dense: DenseRows, rows: np.ndarray) -> np.ndarray:
    """Flat member positions of ``rows``, row by row."""
    if len(dense.member_jobs) == len(dense.sizes):  # singletons only: member = row
        return rows
    sizes = dense.sizes[rows]
    ends = np.cumsum(sizes)
    return np.repeat(dense.offsets[rows] - ends + sizes, sizes) + np.arange(ends[-1])


def _member_mask(dense: DenseRows, row_mask: np.ndarray) -> np.ndarray:
    """``row_mask`` extended to every member of its rows."""
    if len(dense.member_jobs) == len(dense.sizes):
        return row_mask
    return np.repeat(row_mask, dense.sizes)


class AllocationVariables:
    """Decision variables ``X[combination, accelerator]`` plus validity constraints.

    Besides the one-shot construction used by ``compute_allocation``, the
    object supports **incremental resynchronisation** against a new problem
    snapshot (:meth:`update_to`): rows added or removed by job churn or
    estimate refinement translate into targeted variable/constraint edits on
    the owning program instead of a rebuild.  Per-job effective-throughput
    terms are cached and invalidated only when one of the job's rows
    changes, and :meth:`touched_since` names the jobs an update touched, so
    policy sessions re-derive and rewrite what an event changed and nothing
    else.

    Every row family is emitted as one ndarray block through the program's
    columnar API — one bulk variable allocation, one constraint block per
    validity family — straight from :meth:`ThroughputMatrix.dense_rows`, and
    an update edits each family with one batched call.
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
        self._num_columns = len(matrix.registry)
        self._job_constraints: Dict[int, int] = {}
        self._capacity_constraints: List[int] = []
        self._throughput_terms_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        #: (num_rows, num_columns) variable-index matrix, row-aligned with
        #: ``matrix.dense_rows()``: row ``r``'s variables and, through the
        #: dense rows, its values.
        self._var_matrix: np.ndarray
        #: The rows' packed keys (:func:`_packed_keys`), ``None`` if they do not fit.
        self._keys = _packed_keys(matrix.dense_rows())
        #: Updates applied so far, and the jobs the latest one touched.
        self.revision = 0
        self._touched: Set[int] = set()
        self._create_rows()

    # -- group-count helpers ---------------------------------------------------------
    def job_count(self, job_id: int) -> int:
        """Group size behind ``job_id`` (1 in ordinary per-job problems)."""
        return self._counts.get(job_id, 1)

    def _job_counts(self, job_ids: np.ndarray) -> np.ndarray:
        """Group sizes of ``job_ids`` as floats (1 in ordinary per-job problems)."""
        if not self._counts:
            return np.ones(len(job_ids))
        counts = self._counts
        return np.fromiter(
            (counts.get(job_id, 1) for job_id in job_ids.tolist()), dtype=float, count=len(job_ids)
        )

    def _row_caps(self, dense: DenseRows, rows: Sequence[int]) -> np.ndarray:
        """Variable caps of ``dense``'s rows ``rows``: the smallest group size among a row's jobs.

        Type-aggregated problems have few rows and an event touches a handful,
        so a row's members are read off its combination.
        """
        if not self._counts:
            return np.ones(len(rows))
        count, combinations = self._counts.get, dense.combinations
        return np.fromiter(
            (min(count(job_id, 1) for job_id in combinations[row]) for row in rows),
            float,
            len(rows),
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
        num_rows = len(dense.combinations)
        caps = self._row_caps(dense, range(num_rows))
        var_matrix = program.add_variables_from_arrays(
            num_rows * num_columns,
            lower=0.0,
            upper=(dense.runnable.astype(float) * caps[:, None]).ravel(),
            name="x",
        ).reshape(num_rows, num_columns)
        self._var_matrix = var_matrix

        # (2) one row per job: coefficient 1 on every variable of every row
        # containing the job, emitted in rows-containing x column order (a
        # same-group pair row contributes two members, i.e. coefficient 2
        # after sparse assembly sums the duplicates); the right-hand side is
        # the job's group size (1 in ordinary per-job problems).
        job_cols = var_matrix[dense.member_rows[dense.members_by_job]]
        counts = np.diff(dense.job_starts) * num_columns
        num_jobs = len(dense.job_ids)
        handles = program.add_constraints_from_arrays(
            np.repeat(np.arange(num_jobs, dtype=np.int64), counts),
            job_cols.ravel(),
            np.ones(job_cols.size),
            -math.inf,
            self._job_counts(dense.job_ids),
        )
        self._job_constraints = dict(zip(dense.job_ids.tolist(), handles.tolist()))

        # (3) one row per worker type, scale-factor coefficients per matrix row.
        row_scales = self._row_scales(dense)
        capacity = self._problem.cluster_spec.counts_vector()
        self._capacity_constraints = program.add_constraints_from_arrays(
            np.repeat(np.arange(num_columns, dtype=np.int64), num_rows),
            var_matrix.T.ravel(),
            np.tile(row_scales, num_columns),
            -math.inf,
            np.asarray(capacity, dtype=float),
        ).tolist()

    # -- incremental resynchronisation ---------------------------------------------
    def update_to(self, problem: PolicyProblem, matrix: ThroughputMatrix) -> None:
        """Re-align variables and validity constraints with a new snapshot.

        Rows of the two snapshots are matched by integer keys (``searchsorted``
        over the sorted key arrays), so an update costs the rows that changed:
        vanished and new rows are one batched edit per constraint family,
        persisting rows whose values changed (estimate refinements) get their
        runnable bounds refreshed.  Edits reach the program in the order a
        row-by-row diff would make them, so the live model receives the same
        calls.  The matrix held already (a type-aggregated view that carried
        it over: no group came or went, no representative changed) has no
        row to match, so such an update costs the group sizes that moved.
        Jobs whose rows changed lose their cached terms; they, the departed
        jobs and those whose group size moved are :meth:`touched_since`'s
        answer.
        """
        previous_cluster = self._problem.cluster_spec
        previous_counts = self._counts
        self._problem = problem
        self._counts = dict(problem.group_counts or {})
        # Only ids whose (id, size) pair differs can have moved; a size absent reads 1.
        changed_counts = {
            job_id
            for job_id, _count in previous_counts.items() ^ self._counts.items()
            if previous_counts.get(job_id, 1) != self._counts.get(job_id, 1)
        }
        if problem.cluster_spec is not previous_cluster:
            self._program.set_constraint_bounds_from_arrays(
                self._capacity_constraints, upper=problem.cluster_spec.counts_vector()
            )
        invalidated = set() if matrix is self._matrix else self._realign_rows(problem, matrix)
        if changed_counts:
            self._resync_counts(changed_counts)
        self.revision += 1
        self._touched = invalidated | changed_counts

    def _realign_rows(self, problem: PolicyProblem, matrix: ThroughputMatrix) -> Set[int]:
        """Match the held rows to ``matrix``'s by key and edit what differs; returns the jobs touched."""
        program = self._program
        old_dense = self._matrix.dense_rows()
        new_dense = matrix.dense_rows()
        old_keys, new_keys = self._keys, _packed_keys(new_dense)
        self._keys = new_keys
        if old_keys is None or new_keys is None:
            ranks = {
                combination: rank
                for rank, combination in enumerate(
                    sorted(set(old_dense.combinations) | set(new_dense.combinations))
                )
            }
            old_keys, new_keys = (
                np.fromiter(map(ranks.__getitem__, combinations), np.int64, len(combinations))
                for combinations in (old_dense.combinations, new_dense.combinations)
            )
        # Where each old row sits among the new ones, and whether it is there.
        where = np.searchsorted(new_keys, old_keys)
        stays = new_keys.take(where, mode="clip") == old_keys
        kept = where[stays]
        invalidated: Set[int] = set()
        old_vars, old_values = self._var_matrix, old_dense.values
        if len(kept) < len(old_keys):
            gone_jobs = self._remove_rows(old_dense, np.flatnonzero(~stays))
            invalidated.update(gone_jobs)
            old_vars, old_values = old_vars[stays], old_values[_member_mask(old_dense, stays)]
            departed = [job_id for job_id in gone_jobs if job_id not in problem.jobs]
            if departed:
                # Jobs that vanished entirely: drop their (now vacuous) constraints.
                program.remove_constraints(
                    [self._job_constraints.pop(job_id) for job_id in departed]
                )
        var_matrix = np.empty((len(new_keys), self._num_columns), dtype=np.int64)
        var_matrix[kept] = old_vars
        new_values, stayed = new_dense.values, None
        if len(kept) < len(new_keys):
            stayed = np.zeros(len(new_keys), dtype=bool)
            stayed[kept] = True
            new_values = new_values[_member_mask(new_dense, stayed)]

        # Persisting rows: one stacked comparison finds the rows whose values
        # changed (refined pair estimates).
        differs = old_values != new_values
        if np.count_nonzero(differs):
            member_rows = new_dense.member_rows
            if stayed is not None:
                member_rows = member_rows[_member_mask(new_dense, stayed)]
            rows = np.unique(member_rows[differs.any(axis=1)])
            program.set_variable_bounds_from_arrays(
                var_matrix[rows].ravel(),
                0.0,
                (new_dense.runnable[rows] * self._row_caps(new_dense, rows)[:, None]).ravel(),
            )
            invalidated.update(new_dense.member_jobs[_member_positions(new_dense, rows)].tolist())

        self._matrix = matrix
        if stayed is not None:
            added = np.flatnonzero(~stayed)
            var_matrix[added] = self._insert_rows(new_dense, added, invalidated)
        self._var_matrix = var_matrix
        for job_id in sorted(invalidated):
            self._throughput_terms_cache.pop(job_id, None)
        return invalidated

    def touched_since(self, revision: int) -> Optional[Set[int]]:
        """Jobs whose terms, rows or group size moved since :attr:`revision` was ``revision``.

        Departed jobs included.  Only the latest :meth:`update_to` is kept:
        ``None`` for an older revision means "look at every job".
        """
        if revision == self.revision:
            return set()
        return self._touched if revision == self.revision - 1 else None

    def _resync_counts(self, changed_jobs: Set[int]) -> None:
        """Refresh rhs/bounds after aggregation-group sizes moved.

        Per-job validity right-hand sides of the affected representatives are
        reset to the new group size, and the variable caps of every persisting
        row touching one of them are recomputed (rows inserted this update
        already used the new counts).  The rows come through the dense rows'
        job index, so the work is the moved groups' rows, not a scan of every
        member.
        """
        present = [job_id for job_id in sorted(changed_jobs) if job_id in self._job_constraints]
        if not present:
            return
        program = self._program
        counts = self._counts
        program.set_constraint_bounds_from_arrays(
            [self._job_constraints[job_id] for job_id in present],
            upper=[float(counts.get(job_id, 1)) for job_id in present],
        )
        dense = self._matrix.dense_rows()
        member_rows = dense.member_rows
        # A job with a job row is a job of the matrix, so each is found.
        rows = sorted(
            {
                row
                for ordinal in np.searchsorted(dense.job_ids, present).tolist()
                for row in member_rows[dense.job_members(ordinal)].tolist()
            }
        )
        program.set_variable_bounds_from_arrays(
            self._var_matrix[rows].ravel(),
            0.0,
            (dense.runnable[rows] * self._row_caps(dense, rows)[:, None]).ravel(),
        )

    def _remove_rows(self, dense: DenseRows, rows: np.ndarray) -> List[int]:
        """Scrub old rows ``rows`` (sorted) from the program; returns their jobs.

        One edit drops their variables from the job and capacity rows, in the
        order a row-by-row removal touches them (the first row's jobs, the
        capacity rows, the later rows' other jobs); one call releases the
        variables row by row, the order later inserts recycle them in.
        """
        variables = self._var_matrix[rows].ravel()
        members = dense.member_jobs[_member_positions(dense, rows)].tolist()
        jobs = list(dict.fromkeys(members))
        first = len(set(members[: dense.sizes[rows[0]]]))
        handles = [self._job_constraints[job_id] for job_id in jobs]
        self._program.remove_terms_from_constraints(
            handles[:first] + self._capacity_constraints + handles[first:], variables
        )
        self._program.release_variables(variables)
        return jobs

    def _insert_rows(self, dense: DenseRows, rows: np.ndarray, invalidated: Set[int]) -> np.ndarray:
        """Insert new matrix rows ``rows`` (sorted); returns their variables, row by row.

        One edit appends to the capacity rows and then to the existing jobs'
        rows, one block adds the rows of new jobs, jobs in first-occurrence
        order over the new rows.  The rows' jobs are added to ``invalidated``.
        """
        program = self._program
        num_columns = self._num_columns
        num_new = len(rows)
        upper = dense.runnable[rows]
        if self._counts:
            upper = upper * self._row_caps(dense, rows)[:, None]
        var_new = program.add_variables_from_arrays(
            num_new * num_columns, lower=0.0, upper=upper.ravel(), name="x"
        ).reshape(num_new, num_columns)
        sizes = dense.sizes[rows].tolist()
        member_jobs = dense.member_jobs[_member_positions(dense, rows)].tolist()
        var_rows = var_new.tolist()
        scale_of = self._problem.scale_factor
        # Per job, in first-occurrence order: the columns of the new rows it is in.
        job_cols: Dict[int, List[int]] = {}
        row_scales: List[float] = []
        start = 0
        for position, size in enumerate(sizes):
            members = member_jobs[start : start + size]
            start += size
            row_scales.append(float(max(map(scale_of, members))))
            for job_id in members:
                job_cols.setdefault(job_id, []).extend(var_rows[position])
        existing = [job_id for job_id in job_cols if job_id in self._job_constraints]
        new_jobs = [job_id for job_id in job_cols if job_id not in self._job_constraints]
        # Capacity rows first, then the existing jobs' rows, in one edit.
        lengths = [len(job_cols[job_id]) for job_id in existing]
        program.add_terms_to_constraints_from_arrays(
            self._capacity_constraints + [self._job_constraints[j] for j in existing],
            np.repeat(np.arange(num_columns + len(existing)), [num_new] * num_columns + lengths),
            var_new.T.ravel().tolist() + [col for job_id in existing for col in job_cols[job_id]],
            row_scales * num_columns + [1.0] * sum(lengths),
        )
        if new_jobs:
            lengths = [len(job_cols[job_id]) for job_id in new_jobs]
            handles = program.add_constraints_from_arrays(
                np.repeat(np.arange(len(new_jobs)), lengths),
                [col for job_id in new_jobs for col in job_cols[job_id]],
                np.ones(sum(lengths)),
                -math.inf,
                self._job_counts(np.asarray(new_jobs)) if self._counts else 1.0,
            )
            self._job_constraints.update(zip(new_jobs, handles.tolist()))
        invalidated.update(job_cols)
        return var_new

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
        combinations = self._matrix.combinations
        row = bisect_left(combinations, key)
        if row == len(combinations) or combinations[row] != key:
            raise UnknownJobError(f"combination {key} is not a row of this problem")
        index = int(self._var_matrix[row, column])
        return Variable(index=index, name=f"x[{key},{self._matrix.registry.names[column]}]")

    def effective_throughput_terms(self, job_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """``throughput(job_id, X)`` as parallel (column, coefficient) arrays.

        Zero coefficients are included (the columnar constraint API filters
        them at ingestion).  The same tuple object is returned on cache hits
        until one of the job's rows changes — callers use its identity to
        tell whether the terms moved, and must not mutate the arrays.
        """
        cached = self._throughput_terms_cache.get(job_id)
        if cached is None:
            job_ids = self._matrix.job_ids
            ordinal = bisect_left(job_ids, job_id)
            if ordinal == len(job_ids) or job_ids[ordinal] != job_id:
                raise UnknownJobError(f"job {job_id} is not in this throughput matrix")
            dense = self._matrix.dense_rows()
            members = dense.job_members(ordinal)
            cached = (
                self._var_matrix[dense.member_rows[members]].ravel(),
                dense.values[members].ravel(),
            )
            self._throughput_terms_cache[job_id] = cached
        return cached

    def effective_throughput_blocks(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Columnar effective-throughput terms for *every* job in one pass.

        Returns ``(job_ids, starts, cols, vals)``: the terms of
        ``job_ids[k]`` are ``cols[starts[k]:starts[k+1]]`` /
        ``vals[starts[k]:starts[k+1]]``, ordered exactly like
        :meth:`effective_throughput_terms` (rows containing the job, then
        accelerator columns), with zero coefficients included.  Also primes
        the per-job term cache, so a later :meth:`effective_throughput_terms`
        hit returns slices of these arrays.
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

    def throughput_sum_terms(
        self, weights: Iterable[Tuple[int, float]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``sum of weight * throughput(job_id, X)`` over ``(job_id, weight)`` pairs.

        Returned as ``(columns, coefficients)`` in
        :func:`~repro.solver.lp.summed_terms` form, columns in the matrix's
        job order: the objective of the weighted-throughput policies.  Each
        job's terms are summed per column (a same-group pair row repeats
        them) before they are weighted.  A column belongs to at most two
        jobs' terms (a pair row), so the order jobs are added in does not
        change a sum.
        """
        job_ids, starts, cols, vals = self.effective_throughput_blocks()
        pairs = list(weights)
        ids = np.fromiter((job_id for job_id, _weight in pairs), np.int64, len(pairs))
        ordinals = np.minimum(np.searchsorted(job_ids, ids), len(job_ids) - 1)
        if not np.array_equal(job_ids[ordinals], ids):
            raise UnknownJobError("a weighted job is not in this throughput matrix")
        weight = np.zeros(len(job_ids))
        weight[ordinals] = [job_weight for _job_id, job_weight in pairs]
        width = int(cols.max()) + 1 if len(cols) else 1
        owners = np.repeat(np.arange(len(job_ids), dtype=np.int64), np.diff(starts))
        keys, summed = summed_terms(owners * width + cols, vals)
        return summed_terms(keys % width, summed * weight[keys // width])

    def cost_terms(self) -> Tuple[np.ndarray, np.ndarray]:
        """Time-averaged dollar cost of the allocation as ``(columns, coefficients)``.

        Each combination row is charged once per accelerator (space-sharing
        jobs split one instance, so the cost is not double counted), scaled by
        the number of workers the combination occupies.
        """
        costs = self._matrix.registry.costs_per_hour()
        dense = self._matrix.dense_rows()
        coeffs = self._row_scales(dense)[:, None] * np.asarray(costs, dtype=float)[None, :]
        return self._var_matrix.ravel(), coeffs.ravel()

    def extract_allocation(self, solution: Solution) -> Allocation:
        """Read the optimal variable values back into an :class:`Allocation`."""
        shares = solution.values[self._var_matrix]
        # Clean up LP round-off.  Group-total rows of a type-aggregated
        # problem may legitimately sit above 1, so only the lower bound is
        # enforced there.
        shares.clip(0.0, None if self._counts else 1.0, out=shares)
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
