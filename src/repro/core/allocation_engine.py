"""Incremental construction of policy-input throughput matrices.

The policy-scalability story (Section 7.5 / Figure 12) depends on keeping the
work done per allocation recomputation close to linear in the number of
active jobs.  Rebuilding the matrix of Section 3.1 from scratch on every
arrival or completion defeats that: with space sharing enabled a rebuild
queries the colocation model for every job *pair*, which is quadratic in the
number of jobs even though almost all of those pair rows are identical to
the ones computed for the previous allocation.

:class:`AllocationEngine` sits between the simulator (or a live scheduler)
and the policies and maintains the matrix incrementally:

* a **type-level colocation cache** (:class:`PairThroughputCache`) memoizes
  pair rows keyed on ``(job_type_a, job_type_b)`` — colocated throughputs
  depend only on the two job types and the accelerator, never on job ids, so
  two ResNet-50 jobs arriving hours apart share one cached row;
* on **arrival** only the new job's singleton row and its pair rows against
  the currently active single-worker jobs are added (O(active jobs));
* on **completion** only the rows containing the finished job are dropped,
  using a per-job row index (O(rows containing the job));
* when an estimator refines colocation estimates (its ``version`` counter
  moves), only the pair rows touching the **refined job types** are
  recomputed when the model can attribute the refinement
  (``refined_job_types_since``), falling back to a full pair-row rebuild
  otherwise.

The engine also emits a **delta stream** for policy sessions: every arrival,
completion and estimate refinement appends a
:class:`~repro.core.session.PolicyDelta`, and :meth:`AllocationEngine.drain_deltas`
hands the batch to ``session.apply(...)`` so the policy layer can edit its
live solver program instead of rebuilding it.

The singleton and pair rows are kept as two key-sorted blocks
(:class:`_SortedRows`) that events *edit* — a departure masks its rows out, an
arrival inserts its rows at their sorted positions — and
:meth:`AllocationEngine.matrix` hands them to
:meth:`~repro.core.throughput_matrix.ThroughputMatrix.from_trusted_blocks`:
each row is validated once, when it first enters a block, not on every event.

The produced matrix is exactly equivalent to a from-scratch
:func:`~repro.core.throughput_matrix.build_throughput_matrix` over the same
active set; the equivalence tests in ``tests/core/test_allocation_engine.py``
assert this after arbitrary arrival/completion sequences.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from typing import Dict, FrozenSet, Generic, Iterable, List, Optional, Set, Tuple, TypeVar

import numpy as np

from repro.core.aggregation import AggregationKey, aggregation_key
from repro.core.session import (
    EstimateRefined,
    JobAdded,
    JobRemoved,
    PolicyDelta,
    TypeCountChanged,
)
from repro.core.throughput_matrix import JobCombination, ThroughputMatrix
from repro.exceptions import ConfigurationError, UnknownJobError
from repro.workloads.colocation import ColocationModel, beneficial_pair_row
from repro.workloads.job import Job
from repro.workloads.throughputs import ThroughputOracle

__all__ = ["AllocationEngine", "PairThroughputCache"]


class PairThroughputCache:
    """Memoized type-level colocation queries.

    Keys are canonical ``(job_type_a, job_type_b)`` pairs (sorted by type
    name); the cached value is the beneficial pair row of
    :func:`~repro.workloads.colocation.beneficial_pair_row` — one column per
    accelerator — or ``None`` when the pair is never worth colocating.  The
    wrapped model may be the true :class:`ColocationModel` or an estimator
    exposing the same query interface.
    """

    def __init__(
        self,
        model: ColocationModel,
        accelerator_names: Tuple[str, ...],
        threshold: float = 1.1,
    ) -> None:
        self._model = model
        self._names = tuple(accelerator_names)
        self._threshold = float(threshold)
        self._rows: Dict[Tuple[str, str], Optional[np.ndarray]] = {}
        # Mutable models (e.g. a ThroughputEstimator refined online via
        # ``observe()``) expose a ``version`` counter; cached rows are dropped
        # whenever it changes so refinements reach later allocations.
        self._model_version = getattr(model, "version", None)
        self.hits = 0
        self.misses = 0

    @property
    def model(self) -> ColocationModel:
        return self._model

    def __len__(self) -> int:
        return len(self._rows)

    def poll_refinements(self) -> Tuple[bool, Optional[FrozenSet[str]]]:
        """Invalidate stale rows; returns ``(changed, refined job types)``.

        When the model's ``version`` moved and the model can attribute the
        refinements to job types (``refined_job_types_since``), only the
        cached rows touching those types are dropped and the type set is
        returned; otherwise every row is dropped and ``None`` is returned
        (meaning "anything may have changed").
        """
        current_version = getattr(self._model, "version", None)
        if current_version == self._model_version:
            return False, frozenset()
        query = getattr(self._model, "refined_job_types_since", None)
        types = query(self._model_version) if callable(query) else None
        if types is None:
            self._rows.clear()
        else:
            self.invalidate_types(types)
        self._model_version = current_version
        return True, types

    def row(self, job_type_a: str, job_type_b: str) -> Optional[np.ndarray]:
        """Pair row with ``[0]`` = ``job_type_a``'s throughputs, or ``None``.

        Returns a copy, so callers may mutate freely.  Rows are served from
        whatever model version the last refresh saw; callers holding rows
        across model mutations coordinate refreshes themselves (as
        :class:`AllocationEngine` does), since refreshing here would silently
        consume the version bump mid-update.
        """
        key = (
            (job_type_a, job_type_b)
            if job_type_a <= job_type_b
            else (job_type_b, job_type_a)
        )
        if key in self._rows:
            self.hits += 1
            cached = self._rows[key]
        else:
            self.misses += 1
            cached = beneficial_pair_row(
                self._model, key[0], key[1], self._names, threshold=self._threshold
            )
            self._rows[key] = cached
        if cached is None:
            return None
        return cached.copy() if (job_type_a, job_type_b) == key else cached[::-1].copy()

    def invalidate(self) -> None:
        """Drop all cached rows (call after mutating the underlying model)."""
        self._rows.clear()

    def invalidate_types(self, job_types: Iterable[str]) -> int:
        """Drop only the cached rows touching the given job types."""
        affected = set(job_types)
        stale = [key for key in self._rows if key[0] in affected or key[1] in affected]
        for key in stale:
            del self._rows[key]
        return len(stale)


_Key = TypeVar("_Key", int, JobCombination)


class _SortedRows(Generic[_Key]):
    """Rows keyed by job id (or pair), also kept as one key-sorted block.

    The mapping is the truth; edits since the last :meth:`block` are buffered
    and applied there in one pass — removed rows masked out, added rows
    inserted at their sorted positions — so a block is edited, not re-stacked
    from every row.  A returned block is never written to again, so a matrix
    adopting it stays valid after later edits.  Rows are validated (shape, no
    negative throughput) once, in one batch, when they first enter a block.
    """

    def __init__(self, shape: Tuple[int, ...]) -> None:
        self._shape = shape
        self._rows: Dict[_Key, np.ndarray] = {}
        self._keys: List[_Key] = []
        self._block = np.zeros((0, *shape))
        self._added: Dict[_Key, np.ndarray] = {}
        self._removed: Set[_Key] = set()

    def __len__(self) -> int:
        return len(self._rows)

    def __setitem__(self, key: _Key, row: np.ndarray) -> None:
        if key in self._rows:
            self.pop(key)
        self._rows[key] = self._added[key] = row

    def pop(self, key: _Key) -> None:
        if self._rows.pop(key, None) is not None and self._added.pop(key, None) is None:
            self._removed.add(key)  # in the block: mask it out at the next block()

    def clear(self) -> None:
        self._rows.clear()
        self._keys = []
        self._block = np.zeros((0, *self._shape))
        self._added.clear()
        self._removed.clear()

    def block(self) -> Tuple[List[_Key], np.ndarray]:
        """Keys in ascending order and the row-aligned block."""
        keys, block = self._keys, self._block
        if self._removed:
            keep = np.ones(len(keys), dtype=bool)
            keep[[bisect_left(keys, key) for key in self._removed]] = False
            keys, block = list(compress(keys, keep.tolist())), block[keep]
            self._removed.clear()
        if self._added:
            new = sorted(self._added)
            rows = np.array([self._added[key] for key in new], dtype=float)
            if rows.shape[1:] != self._shape or np.any(rows < 0):
                raise ConfigurationError(
                    f"rows {new} must have shape {self._shape} and no negative throughput"
                )
            at = np.fromiter((bisect_left(keys, key) for key in new), np.intp, len(new))
            at += np.arange(len(new))  # positions in the merged block
            merged = np.empty((len(keys) + len(new), *self._shape))
            fresh = np.zeros(len(merged), dtype=bool)
            fresh[at] = True
            merged[at] = rows
            merged[~fresh] = block
            keys, block = sorted(keys + new), merged  # two sorted runs: one merge
            self._added.clear()
        self._keys, self._block = keys, block
        return keys, block


class AllocationEngine:
    """Maintains the policy-input :class:`ThroughputMatrix` incrementally.

    The engine tracks the active job set; :meth:`add_job` and
    :meth:`remove_job` touch only the rows affected by the event, and
    :meth:`matrix` returns the (memoized) matrix for the current set.
    Changes are mirrored into a delta stream (:meth:`drain_deltas`) that
    policy sessions consume.
    """

    def __init__(
        self,
        oracle: ThroughputOracle,
        space_sharing: bool = False,
        colocation_model: Optional[ColocationModel] = None,
        colocation_threshold: float = 1.1,
        consolidated: bool = True,
        aggregation: str = "job",
    ) -> None:
        if aggregation not in ("job", "type"):
            raise ConfigurationError(
                f"unknown aggregation mode {aggregation!r}; expected 'job' or 'type'"
            )
        self._oracle = oracle
        self._space_sharing = bool(space_sharing)
        self._consolidated = bool(consolidated)
        self._aggregation = aggregation
        self._cache: Optional[PairThroughputCache] = None
        if self._space_sharing:
            model = (
                colocation_model if colocation_model is not None else ColocationModel(oracle)
            )
            self._cache = PairThroughputCache(
                model, tuple(oracle.registry.names), threshold=colocation_threshold
            )
        num_types = len(oracle.registry)
        self._jobs: Dict[int, Job] = {}
        self._single_worker: Dict[int, Job] = {}
        self._singles: _SortedRows[int] = _SortedRows((num_types,))
        self._pairs: _SortedRows[JobCombination] = _SortedRows((2, num_types))
        self._pair_rows_by_job: Dict[int, Set[JobCombination]] = {}
        #: Active-type histogram (group key -> member count), maintained in
        #: both modes; drives the ``TypeCountChanged`` delta stream.
        self._group_counts: Dict[AggregationKey, int] = {}
        #: Type mode only: single-worker members per job type, and the one
        #: representative member pair currently standing in for each
        #: beneficial type pair (canonical sorted type names).
        self._single_worker_by_type: Dict[str, Set[int]] = {}
        self._type_pair_reps: Dict[Tuple[str, str], JobCombination] = {}
        self._matrix: Optional[ThroughputMatrix] = None
        self._deltas: List[PolicyDelta] = []

    # -- structure -------------------------------------------------------------
    @property
    def space_sharing(self) -> bool:
        return self._space_sharing

    @property
    def aggregation(self) -> str:
        """Matrix-construction mode: ``"job"`` or ``"type"`` (see class docs)."""
        return self._aggregation

    @property
    def group_counts(self) -> Dict[AggregationKey, int]:
        """Copy of the active-type histogram (group key -> member count)."""
        return dict(self._group_counts)

    @property
    def colocation_cache(self) -> Optional[PairThroughputCache]:
        return self._cache

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job_id: object) -> bool:
        return job_id in self._jobs

    @property
    def job_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._jobs))

    def num_rows(self) -> int:
        return len(self._singles) + len(self._pairs)

    # -- delta stream -------------------------------------------------------------
    def drain_deltas(self) -> List[PolicyDelta]:
        """Return (and clear) the deltas accumulated since the last drain.

        The batch is ready to hand to ``PolicySession.apply``; deltas are
        advisory for sessions, so draining into multiple consumers only costs
        recomputation time, never correctness.
        """
        drained, self._deltas = self._deltas, []
        return drained

    # -- incremental updates -----------------------------------------------------
    def _sync_model_version(self) -> None:
        """Apply pending colocation-model refinements to the pair rows.

        When the model attributes its refinement to specific job types, only
        the pair rows involving active jobs of those types are recomputed
        (O(affected jobs x active jobs)); otherwise every pair row is rebuilt.
        """
        if self._cache is None:
            return
        changed, types = self._cache.poll_refinements()
        if not changed:
            return
        self._matrix = None
        if types is None:
            self._rebuild_pair_rows()
            self._deltas.append(EstimateRefined(job_types=None))
        else:
            self._rebuild_pair_rows_for_types(types)
            self._deltas.append(EstimateRefined(job_types=tuple(sorted(types))))

    def _insert_pair_row(self, job_a: Job, job_b: Job) -> Optional[JobCombination]:
        """Add the (cached) pair row for two single-worker jobs, if beneficial."""
        low, high = (job_a, job_b) if job_a.job_id < job_b.job_id else (job_b, job_a)
        row = self._cache.row(low.job_type, high.job_type)
        if row is None:
            return None
        combination = (low.job_id, high.job_id)
        self._pairs[combination] = row
        self._pair_rows_by_job.setdefault(low.job_id, set()).add(combination)
        self._pair_rows_by_job.setdefault(high.job_id, set()).add(combination)
        return combination

    def _remove_pair_row(self, combination: JobCombination) -> None:
        """Drop one pair row from the store and the per-job row index."""
        self._pairs.pop(combination)
        for job_id in dict.fromkeys(combination):
            rows = self._pair_rows_by_job.get(job_id)
            if rows is not None:
                rows.discard(combination)
                if not rows:
                    del self._pair_rows_by_job[job_id]

    def _ensure_type_pair_row(self, type_a: str, type_b: str) -> None:
        """Type mode: keep one representative member pair for a type pair.

        Picks the smallest-id single-worker member of each type (two smallest
        for a same-type pair); a no-op when a representative already exists,
        when either type has no eligible member, or when the pair is not
        beneficial (the cache memoizes that verdict, so repeats are O(1)).
        """
        key = (type_a, type_b) if type_a <= type_b else (type_b, type_a)
        if key in self._type_pair_reps:
            return
        members_a = self._single_worker_by_type.get(key[0])
        members_b = self._single_worker_by_type.get(key[1])
        if not members_a or not members_b:
            return
        if key[0] == key[1]:
            if len(members_a) < 2:
                return
            first, second = sorted(members_a)[:2]
        else:
            first, second = min(members_a), min(members_b)
        combination = self._insert_pair_row(self._jobs[first], self._jobs[second])
        if combination is not None:
            self._type_pair_reps[key] = combination

    def _bump_group_count(self, job: Job, delta: int) -> None:
        """Histogram update + ``TypeCountChanged`` emission for one arrival/exit."""
        key = aggregation_key(job)
        count = self._group_counts.get(key, 0) + delta
        if count > 0:
            self._group_counts[key] = count
        else:
            self._group_counts.pop(key, None)
            count = 0
        self._deltas.append(TypeCountChanged(key=key, count=count))

    def add_job(self, job: Job) -> None:
        """Add one job: its singleton row plus the pair rows the mode needs.

        The singleton row is the oracle's ``throughput_vector``, the singleton
        case of :func:`~repro.workloads.colocation.member_throughputs`.  Pairs
        join single-worker jobs only, so its pair case never needs a scale
        factor or a placement.  ``"job"`` mode inserts pair rows
        against every active single-worker job (O(active jobs) per arrival);
        ``"type"`` mode keeps only one representative member pair per
        beneficial type pair, so the insert loop is O(active types) and the
        histogram bump is O(1).
        """
        if job.job_id in self._jobs:
            raise ConfigurationError(f"job {job.job_id} is already tracked by the engine")
        self._sync_model_version()
        self._matrix = None
        vector = self._oracle.throughput_vector(
            job.job_type, scale_factor=job.scale_factor, consolidated=self._consolidated
        )
        self._singles[job.job_id] = vector
        self._jobs[job.job_id] = job
        if self._cache is not None and job.scale_factor == 1:
            if self._aggregation == "type":
                self._single_worker[job.job_id] = job
                self._single_worker_by_type.setdefault(job.job_type, set()).add(
                    job.job_id
                )
                for other_type in list(self._single_worker_by_type):
                    self._ensure_type_pair_row(job.job_type, other_type)
            else:
                for other in self._single_worker.values():
                    self._insert_pair_row(job, other)
                self._single_worker[job.job_id] = job
        self._deltas.append(JobAdded(job=job))
        self._bump_group_count(job, +1)

    def add_jobs(self, jobs: Iterable[Job]) -> None:
        for job in jobs:
            self.add_job(job)

    def remove_job(self, job_id: int) -> None:
        """Remove one job and every matrix row it participates in.

        In type mode a departing representative's pair rows are re-seated on
        the surviving members of the affected type pairs, if any.
        """
        if job_id not in self._jobs:
            raise UnknownJobError(f"job {job_id} is not tracked by the engine")
        self._matrix = None
        job = self._jobs.pop(job_id)
        self._single_worker.pop(job_id, None)
        self._singles.pop(job_id)
        self._drop_pair_rows_of(job_id)
        if self._aggregation == "type":
            members = self._single_worker_by_type.get(job.job_type)
            if members is not None:
                members.discard(job_id)
                if not members:
                    del self._single_worker_by_type[job.job_type]
            orphaned = [
                key
                for key, combination in self._type_pair_reps.items()
                if job_id in combination
            ]
            for key in orphaned:
                del self._type_pair_reps[key]
                self._ensure_type_pair_row(*key)
        self._deltas.append(JobRemoved(job_id=job_id))
        self._bump_group_count(job, -1)

    def _drop_pair_rows_of(self, job_id: int) -> None:
        """Remove every pair row containing ``job_id`` (the job itself stays)."""
        for combination in self._pair_rows_by_job.pop(job_id, set()):
            self._pairs.pop(combination)
            for other_id in combination:
                if other_id != job_id:
                    partner_rows = self._pair_rows_by_job.get(other_id)
                    if partner_rows is not None:
                        partner_rows.discard(combination)

    def _rebuild_pair_rows(self) -> None:
        """Recompute every pair row from the (refreshed) colocation cache."""
        self._pairs.clear()
        self._pair_rows_by_job.clear()
        if self._aggregation == "type":
            self._type_pair_reps.clear()
            active = sorted(self._single_worker_by_type)
            for index, type_a in enumerate(active):
                for type_b in active[index:]:
                    self._ensure_type_pair_row(type_a, type_b)
            return
        ordered = sorted(self._single_worker.values(), key=lambda job: job.job_id)
        for first_index in range(len(ordered)):
            for second_index in range(first_index + 1, len(ordered)):
                self._insert_pair_row(ordered[first_index], ordered[second_index])

    def _rebuild_pair_rows_for_types(self, job_types: FrozenSet[str]) -> None:
        """Recompute only the pair rows involving jobs of the given types."""
        if self._aggregation == "type":
            stale = [
                key
                for key in self._type_pair_reps
                if key[0] in job_types or key[1] in job_types
            ]
            for key in stale:
                self._remove_pair_row(self._type_pair_reps.pop(key))
            active = sorted(self._single_worker_by_type)
            # Sorted: pair-row insertion order must not depend on the hash-
            # seeded iteration order of a frozenset of type names.
            for type_a in sorted(job_types):
                if type_a not in self._single_worker_by_type:
                    continue
                for type_b in active:
                    self._ensure_type_pair_row(type_a, type_b)
            return
        affected = [
            job for job in self._single_worker.values() if job.job_type in job_types
        ]
        for job in affected:
            self._drop_pair_rows_of(job.job_id)
        for job in affected:
            for other in self._single_worker.values():
                if other.job_id != job.job_id:
                    self._insert_pair_row(job, other)

    # -- matrix view ---------------------------------------------------------------
    def matrix(self) -> ThroughputMatrix:
        """The policy-input matrix for the current active set (memoized).

        When the colocation model advertises a changed ``version`` (an
        estimator refined by ``observe()``), the affected pair rows are
        recomputed so the refinement reaches this and later allocations.
        A rebuild costs the rows added or removed since the last one plus a
        C-level pass over the two blocks; no row is re-validated.
        """
        self._sync_model_version()
        if self._matrix is None:
            if not self._singles:
                raise ConfigurationError(
                    "cannot build a throughput matrix for zero active jobs"
                )
            job_ids, singles = self._singles.block()
            pair_ids, pairs = self._pairs.block()
            self._matrix = ThroughputMatrix.from_trusted_blocks(
                self._oracle.registry, tuple(job_ids), singles, tuple(pair_ids), pairs
            )
        return self._matrix
