"""Throughput matrices over job combinations.

A policy's input is the matrix ``T`` of Section 3.1: one row per schedulable
unit (a single job, or — when space sharing is enabled — a pair of jobs) and
one column per accelerator type.  For pair rows the entry is a tuple of
per-job throughputs; this module stores each pair row as an array of shape
``(len(combination), num_accelerator_types)``.

Singleton rows are backed by **one dense ndarray** (one row per job, in
sorted-job-id order) instead of one small Python-owned array per job: at
1000+ active jobs the per-row object overhead (allocation, dtype checks,
``vstack`` during :meth:`ThroughputMatrix.singles_matrix`) dominated matrix
construction, and the dense block makes the singleton-only transformations
(:meth:`ThroughputMatrix.restrict_to_singletons`,
:meth:`ThroughputMatrix.heterogeneity_agnostic`) vectorized copies.
:meth:`ThroughputMatrix.from_parts` exposes the dense fast path to builders
that already hold the block (the oracle's batched singleton rows, the
aggregated view), and :meth:`ThroughputMatrix.from_trusted_blocks` adopts the
sorted singleton and pair blocks the allocation engine keeps across events
without re-validating them.  Everything derived from the blocks — the row
list, the columnar view, the pair mapping — is built on first use.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from operator import lt
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.accelerators import AcceleratorRegistry
from repro.exceptions import ConfigurationError, UnknownJobError
from repro.workloads.colocation import ColocationModel, beneficial_pair_row
from repro.workloads.job import Job
from repro.workloads.throughputs import ThroughputOracle

__all__ = ["JobCombination", "DenseRows", "ThroughputMatrix", "build_throughput_matrix"]

JobCombination = Tuple[int, ...]


@dataclass(frozen=True)
class DenseRows:
    """Columnar view of every matrix row, for LP assembly.

    The matrix's rows are ragged (singletons carry one member, pairs two), so
    the view flattens them member-major: member ``k`` of row ``r`` lives at
    flat position ``offsets[r] + k``.  All arrays are internal storage —
    consumers must not mutate them.

    Attributes:
        combinations: The matrix's rows, sorted (same order as
            :attr:`ThroughputMatrix.combinations`).
        sizes: Per-row member count, shape ``(num_rows,)``.
        offsets: Prefix sum of ``sizes``, shape ``(num_rows + 1,)``.
        values: Per-member throughput vectors, shape ``(num_members,
            num_accelerator_types)``.
        member_jobs: Per-member job id, shape ``(num_members,)``.
        member_ordinals: Per-member index into :attr:`job_ids`.
        member_rows: Per-member row ordinal.
        runnable: Per-row, per-type "any member can run" mask, shape
            ``(num_rows, num_accelerator_types)``.
        job_ids: Sorted distinct job ids, shape ``(num_jobs,)``.
        members_by_job: Flat member positions grouped by job: the members of
            ``job_ids[k]`` are ``members_by_job[job_starts[k]:job_starts[k+1]]``,
            in row order (matching :meth:`ThroughputMatrix.rows_containing`).
        job_starts: Group boundaries into ``members_by_job``, shape
            ``(num_jobs + 1,)``.
    """

    combinations: Tuple[JobCombination, ...]
    sizes: np.ndarray
    offsets: np.ndarray
    values: np.ndarray
    member_jobs: np.ndarray
    member_ordinals: np.ndarray
    member_rows: np.ndarray
    runnable: np.ndarray
    job_ids: np.ndarray
    members_by_job: np.ndarray
    job_starts: np.ndarray

    def job_members(self, ordinal: int) -> np.ndarray:
        """The member positions of ``job_ids[ordinal]``, in row order (a view, not a copy)."""
        return self.members_by_job[self.job_starts[ordinal] : self.job_starts[ordinal + 1]]


def _normalize_combination(combination: Sequence[int]) -> JobCombination:
    ordered = tuple(sorted(int(j) for j in combination))
    if not ordered:
        raise ConfigurationError("combination must contain at least one job")
    if len(set(ordered)) != len(ordered) and len(ordered) != 2:
        # Duplicate ids are allowed only for pairs: a ``(j, j)`` row models
        # the colocation of two interchangeable jobs of the same group in a
        # type-aggregated problem (see repro.core.aggregation).  Larger
        # combinations with repeats have no such meaning and stay rejected.
        raise ConfigurationError(f"combination {combination} repeats a job id")
    return ordered


def _check_members(job_ids: Tuple[int, ...], members: np.ndarray) -> None:
    """Raise unless every job of a multi-job row (``members``) has a singleton row."""
    ids = np.asarray(job_ids, dtype=np.int64)
    positions = np.minimum(np.searchsorted(ids, members), len(ids) - 1)
    missing = members[ids[positions] != members]
    if len(missing):
        raise ConfigurationError(
            f"job {int(missing[0])} appears in a pair row but has no singleton row"
        )


class ThroughputMatrix:
    """Per-combination, per-accelerator throughputs for a set of active jobs."""

    def __deepcopy__(self, memo: dict) -> "ThroughputMatrix":
        return self  # immutable: a deep copy (a policy-session clone) shares it

    def __init__(
        self,
        registry: AcceleratorRegistry,
        entries: Mapping[JobCombination, np.ndarray],
    ) -> None:
        if not entries:
            raise ConfigurationError("throughput matrix must contain at least one row")
        singles: Dict[int, np.ndarray] = {}
        pairs: Dict[JobCombination, np.ndarray] = {}
        for combination, values in entries.items():
            normalized = _normalize_combination(combination)
            array = np.asarray(values, dtype=float)
            expected = (len(normalized), len(registry))
            if array.shape != expected:
                raise ConfigurationError(
                    f"row for combination {normalized} has shape {array.shape}, expected {expected}"
                )
            if np.any(array < 0):
                raise ConfigurationError(
                    f"row for combination {normalized} contains negative throughputs"
                )
            if len(normalized) == 1:
                singles[normalized[0]] = array[0]
            else:
                pairs[normalized] = array
        job_ids = sorted(singles)
        dense = (
            np.vstack([singles[job_id] for job_id in job_ids])
            if job_ids
            else np.zeros((0, len(registry)))
        )
        self._init_from_parts(registry, tuple(job_ids), dense, pairs)
        _check_members(self._job_ids, np.fromiter(chain.from_iterable(pairs), np.int64))

    @classmethod
    def from_parts(
        cls,
        registry: AcceleratorRegistry,
        job_ids: Sequence[int],
        singles: np.ndarray,
        pairs: Optional[Mapping[JobCombination, np.ndarray]] = None,
    ) -> "ThroughputMatrix":
        """Fast-path constructor from a pre-built dense singleton block.

        ``singles`` has one row per entry of ``job_ids`` (which must be
        sorted and duplicate-free); ``pairs`` maps normalized multi-job
        combinations to ``(len(combination), num_accelerators)`` arrays.
        Validation is vectorized rather than per-row.
        """
        matrix = cls.__new__(cls)
        job_ids = tuple(map(int, job_ids))
        singles = np.asarray(singles, dtype=float)
        if singles.shape != (len(job_ids), len(registry)):
            raise ConfigurationError(
                f"singleton block has shape {singles.shape}, expected "
                f"{(len(job_ids), len(registry))}"
            )
        if not all(map(lt, job_ids, job_ids[1:])):
            raise ConfigurationError("from_parts job_ids must be sorted and unique")
        if np.any(singles < 0):
            raise ConfigurationError("singleton block contains negative throughputs")
        # ``None``: every multi-job row is in the pair block, mapped on first use.
        pair_entries: Optional[Dict[JobCombination, np.ndarray]] = None
        pair_block: Optional[np.ndarray] = None
        pair_ids: Tuple[JobCombination, ...] = ()
        pair_items = sorted((pairs or {}).items())
        if pair_items and all(len(combination) == 2 for combination, _ in pair_items):
            # Fast path: every multi-job row is a pair, so validation is one
            # stacked block instead of a per-row Python loop.
            endpoints = np.asarray([combination for combination, _ in pair_items], dtype=np.int64)
            if np.any(endpoints[:, 0] > endpoints[:, 1]):
                bad = endpoints[endpoints[:, 0] > endpoints[:, 1]][0]
                raise ConfigurationError(
                    f"pair row {tuple(bad)} is not a normalized (sorted) pair"
                )
            try:
                pair_block = np.stack([np.asarray(v, dtype=float) for _, v in pair_items])
            except ValueError:
                pair_block = None
            if pair_block is None or pair_block.shape != (len(pair_items), 2, len(registry)):
                shapes = {np.asarray(v, dtype=float).shape for _, v in pair_items}
                raise ConfigurationError(
                    f"pair rows have shapes {sorted(shapes)}, expected {(2, len(registry))}"
                )
            if np.any(pair_block < 0):
                raise ConfigurationError("pair rows contain negative throughputs")
            pair_ids = tuple(combination for combination, _ in pair_items)
        else:
            pair_entries = {}
            for combination, values in pair_items:
                array = np.asarray(values, dtype=float)
                if array.shape != (len(combination), len(registry)) or len(combination) < 2:
                    raise ConfigurationError(
                        f"pair row {combination} has shape {array.shape}, expected "
                        f"{(len(combination), len(registry))}"
                    )
                if np.any(array < 0):
                    raise ConfigurationError(
                        f"row for combination {combination} contains negative throughputs"
                    )
                pair_entries[_normalize_combination(combination)] = array
        matrix._init_from_parts(
            registry, job_ids, singles, pair_entries, pair_ids=pair_ids, pair_block=pair_block
        )
        if pair_block is not None:
            matrix._pair_endpoints = endpoints
            _check_members(job_ids, endpoints.ravel())
        elif pair_entries:
            _check_members(job_ids, np.fromiter(chain.from_iterable(pair_entries), np.int64))
        return matrix

    @classmethod
    def from_trusted_blocks(
        cls,
        registry: AcceleratorRegistry,
        job_ids: Tuple[int, ...],
        singles: np.ndarray,
        pair_ids: Tuple[JobCombination, ...],
        pair_block: np.ndarray,
    ) -> "ThroughputMatrix":
        """Adopt blocks whose rows were validated when they entered them.

        ``job_ids`` is sorted and unique with ``singles`` row-aligned;
        ``pair_ids`` is sorted, each a normalized pair of ``job_ids`` members,
        with ``pair_block`` of shape ``(len(pair_ids), 2, num_accelerators)``
        aligned; no throughput is negative.  Nothing is checked or copied —
        this is the allocation engine's per-event path, whose rows were checked
        as they entered its blocks — so the caller must never write to the
        arrays again.
        """
        matrix = cls.__new__(cls)
        matrix._init_from_parts(registry, job_ids, singles, None, pair_ids, pair_block)
        return matrix

    def _init_from_parts(
        self,
        registry: AcceleratorRegistry,
        job_ids: Tuple[int, ...],
        singles: np.ndarray,
        pairs: Optional[Dict[JobCombination, np.ndarray]],
        pair_ids: Optional[Tuple[JobCombination, ...]] = None,
        pair_block: Optional[np.ndarray] = None,
    ) -> None:
        """Adopt the parts; derived state is built on first use.

        ``pairs`` maps every multi-job row, or is ``None`` when ``pair_block``
        holds them all (then :meth:`_pair_dict` derives the mapping).
        """
        if len(job_ids) == 0:
            raise ConfigurationError("throughput matrix must contain at least one row")
        self._registry = registry
        self._job_ids: Tuple[int, ...] = job_ids
        self._singles = singles
        self._pairs = pairs
        #: The pair block and its (sorted) combinations; the block is ``None``
        #: until :meth:`_pair_parts` stacks it from ``pairs``.
        self._pair_ids: Tuple[JobCombination, ...] = (
            pair_ids if pair_ids is not None and pair_block is not None else ()
        )
        self._pair_block: Optional[np.ndarray] = pair_block
        #: Sorted (first, second) job-id endpoints of the pair block, cached
        #: for vectorized merged-row assembly in :meth:`dense_rows`.
        self._pair_endpoints: Optional[np.ndarray] = None
        self._pair_index_map: Optional[Dict[JobCombination, int]] = None
        self._combinations: Optional[Tuple[JobCombination, ...]] = None
        self._dense_rows: Optional[DenseRows] = None

    def _pair_dict(self) -> Dict[JobCombination, np.ndarray]:
        """Every multi-job row by combination (views into the pair block)."""
        if self._pairs is None:  # then the block holds every multi-job row
            self._pairs = dict(zip(*self._pair_parts()))
        return self._pairs

    def _num_multi(self) -> int:
        """Number of multi-job rows."""
        return len(self._pair_ids) if self._pairs is None else len(self._pairs)

    def _combination_tuple(self) -> Tuple[JobCombination, ...]:
        if self._combinations is None:
            singles = list(zip(self._job_ids))
            multi = self._pair_ids if self._pairs is None else list(self._pairs)
            # Two sorted runs when the pairs come from the block: one merge.
            self._combinations = tuple(sorted(singles + list(multi)) if multi else singles)
        return self._combinations

    def _single_row(self, job_id: int) -> Optional[int]:
        """Index of ``job_id`` in the (sorted) singleton block, ``None`` if absent."""
        index = bisect_left(self._job_ids, job_id)
        if index < len(self._job_ids) and self._job_ids[index] == job_id:
            return index
        return None

    # -- structure -------------------------------------------------------------
    @property
    def registry(self) -> AcceleratorRegistry:
        return self._registry

    @property
    def combinations(self) -> Tuple[JobCombination, ...]:
        """All rows, sorted; singletons first within the natural tuple order."""
        return self._combination_tuple()

    @property
    def job_ids(self) -> Tuple[int, ...]:
        """All distinct job ids appearing in any row."""
        return self._job_ids

    @property
    def num_accelerator_types(self) -> int:
        return len(self._registry)

    def num_rows(self) -> int:
        return len(self._job_ids) + self._num_multi()

    def has_space_sharing(self) -> bool:
        """Whether any row contains more than one job."""
        return self._num_multi() > 0

    def rows_containing(self, job_id: int) -> Tuple[Tuple[JobCombination, int], ...]:
        """Rows in which ``job_id`` participates, with its position in each row.

        Read off :meth:`dense_rows`, which groups the members by job in row order.
        """
        ordinal = self._single_row(job_id)
        if ordinal is None:
            raise UnknownJobError(f"job {job_id} is not in this throughput matrix")
        dense = self.dense_rows()
        members = dense.job_members(ordinal)
        rows = dense.member_rows[members]
        combinations = dense.combinations
        return tuple(
            (combinations[row], position)
            for row, position in zip(rows.tolist(), (members - dense.offsets[rows]).tolist())
        )

    # -- dense blocks ------------------------------------------------------------
    def _pair_parts(self) -> Tuple[Tuple[JobCombination, ...], np.ndarray]:
        """Sorted 2-job combinations and their stacked ``(n, 2, types)`` block."""
        if self._pair_block is None:  # then ``pairs`` maps every multi-job row
            pairs = self._pair_dict()
            pair_ids = tuple(c for c in sorted(pairs) if len(c) == 2)
            self._pair_ids = pair_ids
            self._pair_block = (
                np.stack([pairs[c] for c in pair_ids])
                if pair_ids
                else np.zeros((0, 2, len(self._registry)))
            )
        return self._pair_ids, self._pair_block

    def pairs_matrix(self) -> Tuple[Tuple[JobCombination, ...], np.ndarray]:
        """Dense block of pair rows, mirroring :meth:`singles_matrix`.

        Returns the sorted 2-job combinations and a copy of the
        ``(num_pairs, 2, num_accelerator_types)`` block; row ``i`` position
        ``k`` holds the throughputs of job ``combinations[i][k]``.
        Combinations with more than two jobs (not produced by any current
        builder) are not part of the block.
        """
        pair_ids, pair_block = self._pair_parts()
        return pair_ids, pair_block.copy()

    def pair_index(self, combination: Sequence[int]) -> int:
        """Row of a normalized pair inside the :meth:`pairs_matrix` block."""
        if self._pair_index_map is None:
            pair_ids, _ = self._pair_parts()
            self._pair_index_map = {c: i for i, c in enumerate(pair_ids)}
        normalized = _normalize_combination(combination)
        index = self._pair_index_map.get(normalized)
        if index is None:
            raise UnknownJobError(f"combination {normalized} is not a pair row of this matrix")
        return index

    def dense_rows(self) -> DenseRows:
        """Cached columnar view of every row (see :class:`DenseRows`).

        This is what LP assembly consumes: flat ndarrays
        covering all rows at once, instead of per-row Python objects.
        """
        if self._dense_rows is None and not self._num_multi():
            # Singletons only: row k is job k's one member, in job order.
            count = len(self._job_ids)
            bounds = np.arange(count + 1, dtype=np.int64)
            index = bounds[:-1]
            job_ids = np.asarray(self._job_ids, dtype=np.int64)
            self._dense_rows = DenseRows(
                combinations=self._combination_tuple(),
                sizes=np.ones(count, dtype=np.int64),
                offsets=bounds,
                values=self._singles.copy(),
                member_jobs=job_ids,
                member_ordinals=index,
                member_rows=index,
                runnable=self._singles > 0,
                job_ids=job_ids,
                members_by_job=index,
                job_starts=bounds,
            )
        if self._dense_rows is None:
            combinations = self._combination_tuple()
            num_rows = len(combinations)
            num_types = len(self._registry)
            job_ids = np.asarray(self._job_ids, dtype=np.int64)
            pair_ids, pair_block = self._pair_parts() if self._num_multi() else ((), None)
            if len(pair_ids) == self._num_multi():
                # Every multi-job row is a pair: compute the sorted merge of
                # singleton and pair rows arithmetically (a singleton ``(j,)``
                # is preceded by the pairs whose first job is ``< j``, a pair
                # ``(a, b)`` by the singletons ``<= a``) — no per-row Python.
                num_singles = len(job_ids)
                num_pairs = len(pair_ids)
                if num_pairs:
                    if self._pair_endpoints is None:
                        self._pair_endpoints = np.asarray(pair_ids, dtype=np.int64)
                    endpoints = self._pair_endpoints
                    first = endpoints[:, 0]
                    pair_rows = np.arange(num_pairs, dtype=np.int64) + np.searchsorted(
                        job_ids, first, side="right"
                    )
                    single_rows = np.arange(num_singles, dtype=np.int64) + np.searchsorted(
                        first, job_ids, side="left"
                    )
                else:
                    endpoints = np.empty((0, 2), dtype=np.int64)
                    pair_rows = np.empty(0, dtype=np.int64)
                    single_rows = np.arange(num_singles, dtype=np.int64)
                sizes = np.ones(num_rows, dtype=np.int64)
                sizes[pair_rows] = 2
                offsets = np.zeros(num_rows + 1, dtype=np.int64)
                np.cumsum(sizes, out=offsets[1:])
                num_members = int(offsets[-1])
                member_jobs = np.empty(num_members, dtype=np.int64)
                single_offsets = offsets[:-1][single_rows]
                pair_offsets = offsets[:-1][pair_rows]
                member_jobs[single_offsets] = job_ids
                member_jobs[pair_offsets] = endpoints[:, 0]
                member_jobs[pair_offsets + 1] = endpoints[:, 1]
                values = np.empty((num_members, num_types))
                values[single_offsets] = self._singles
                if num_pairs:
                    values[pair_offsets] = pair_block[:, 0]
                    values[pair_offsets + 1] = pair_block[:, 1]
            else:
                # General fallback (combinations with 3+ jobs): per-row pass.
                sizes = np.fromiter(
                    (len(c) for c in combinations), dtype=np.int64, count=num_rows
                )
                offsets = np.zeros(num_rows + 1, dtype=np.int64)
                np.cumsum(sizes, out=offsets[1:])
                num_members = int(offsets[-1])
                member_jobs = np.fromiter(
                    (job_id for combination in combinations for job_id in combination),
                    dtype=np.int64,
                    count=num_members,
                )
                values = np.empty((num_members, num_types))
                single_offsets = offsets[:-1][sizes == 1]
                values[single_offsets] = self._singles[
                    np.searchsorted(job_ids, member_jobs[single_offsets])
                ]
                if pair_block is not None and len(pair_ids):
                    # Sorted pair ids appear in the sorted combination list in
                    # the same relative order, so the blocks line up 1:1.
                    pair_offsets = offsets[:-1][sizes == 2]
                    values[pair_offsets] = pair_block[:, 0]
                    values[pair_offsets + 1] = pair_block[:, 1]
                for row in np.flatnonzero(sizes > 2):
                    values[offsets[row] : offsets[row + 1]] = self._pair_dict()[combinations[row]]
            member_ordinals = np.searchsorted(job_ids, member_jobs)
            member_rows = np.repeat(np.arange(num_rows, dtype=np.int64), sizes)
            runnable = np.logical_or.reduceat(values > 0, offsets[:-1], axis=0)
            order = np.argsort(member_jobs, kind="stable")
            job_starts = np.append(
                np.searchsorted(member_jobs[order], job_ids), num_members
            ).astype(np.int64)
            self._dense_rows = DenseRows(
                combinations=combinations,
                sizes=sizes,
                offsets=offsets,
                values=values,
                member_jobs=member_jobs,
                member_ordinals=member_ordinals,
                member_rows=member_rows,
                runnable=runnable,
                job_ids=job_ids,
                members_by_job=order,
                job_starts=job_starts,
            )
        return self._dense_rows

    # -- values -----------------------------------------------------------------
    def _row_array(self, combination: JobCombination) -> np.ndarray:
        """Internal view of a normalized combination's row (do not mutate)."""
        if len(combination) == 1:
            index = self._single_row(combination[0])
            if index is None:
                raise UnknownJobError(
                    f"combination {combination} is not in this throughput matrix"
                )
            return self._singles[index : index + 1]
        row = self._pair_dict().get(combination)
        if row is None:
            raise UnknownJobError(f"combination {combination} is not in this throughput matrix")
        return row

    def row(self, combination: Sequence[int]) -> np.ndarray:
        """Full row for a combination: shape ``(len(combination), num_accelerators)``."""
        return self._row_array(_normalize_combination(combination)).copy()

    def throughput(self, combination: Sequence[int], job_id: int, accelerator_name: str) -> float:
        """Throughput of ``job_id`` inside ``combination`` on one accelerator type."""
        normalized = _normalize_combination(combination)
        row = self._row_array(normalized)
        if job_id not in normalized:
            raise UnknownJobError(f"job {job_id} is not part of combination {normalized}")
        position = normalized.index(job_id)
        column = self._registry.index_of(accelerator_name)
        return float(row[position, column])

    def isolated_throughputs(self, job_id: int) -> np.ndarray:
        """The singleton-row throughput vector of ``job_id`` (one entry per accelerator)."""
        index = self._single_row(job_id)
        if index is None:
            raise UnknownJobError(f"job {job_id} has no singleton row")
        return self._singles[index].copy()

    def singles_matrix(self) -> Tuple[Tuple[int, ...], np.ndarray]:
        """Dense matrix of singleton rows only: ``(job_ids, array[num_jobs, num_accels])``."""
        return self._job_ids, self._singles.copy()

    def restrict_to_singletons(self) -> "ThroughputMatrix":
        """A copy of this matrix containing only the singleton rows."""
        return ThroughputMatrix.from_parts(self._registry, self._job_ids, self._singles.copy())

    def heterogeneity_agnostic(self) -> "ThroughputMatrix":
        """Replace every throughput by the job's mean across accelerators.

        This is how heterogeneity-agnostic baselines are modelled: the policy
        sees no difference between accelerator types (a job's "speed" is the
        same everywhere), so its optimization cannot favour one type over
        another, exactly like schedulers that reason only about device counts.
        Zero columns (job cannot run on that type) are preserved.
        """
        def flatten(block: np.ndarray) -> np.ndarray:
            """Replace each (leading…, type) vector by its mean over runnable types."""
            runnable = block > 0
            counts = runnable.sum(axis=-1)
            sums = block.sum(axis=-1)
            means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
            return np.where(runnable, means[..., None], 0.0)

        flattened_singles = flatten(self._singles)
        pairs: Dict[JobCombination, np.ndarray] = {}
        pair_ids: Tuple[JobCombination, ...] = ()
        pair_block: Optional[np.ndarray] = None
        if self._num_multi():
            pair_ids, block = self._pair_parts()
            pair_block = flatten(block)
            pairs = {c: pair_block[i] for i, c in enumerate(pair_ids)}
            for combination, values in self._pair_dict().items():
                if len(combination) > 2:
                    pairs[combination] = flatten(values)
        matrix = ThroughputMatrix.__new__(ThroughputMatrix)
        matrix._init_from_parts(
            self._registry,
            self._job_ids,
            flattened_singles,
            pairs,
            pair_ids=pair_ids,
            pair_block=pair_block,
        )
        return matrix


def build_throughput_matrix(
    jobs: Sequence[Job],
    oracle: ThroughputOracle,
    space_sharing: bool = False,
    colocation_model: Optional[ColocationModel] = None,
    colocation_threshold: float = 1.1,
    consolidated: bool = True,
) -> ThroughputMatrix:
    """Build the policy-input matrix for a set of active jobs.

    Singleton rows are always present.  When ``space_sharing`` is enabled,
    pair rows are added for every pair of *single-worker* jobs whose combined
    normalized throughput exceeds ``colocation_threshold`` (the paper observes
    that only combinations that actually perform well need to be considered,
    which keeps the matrix close to linear in the number of jobs).
    """
    if not jobs:
        raise ConfigurationError("cannot build a throughput matrix for zero jobs")
    ids = [job.job_id for job in jobs]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("duplicate job ids in throughput matrix input")

    registry = oracle.registry
    ordered = sorted(jobs, key=lambda job: job.job_id)
    singles = oracle.singleton_rows(
        [(job.job_type, job.scale_factor, consolidated) for job in ordered]
    )

    pairs: Dict[JobCombination, np.ndarray] = {}
    if space_sharing:
        model = colocation_model if colocation_model is not None else ColocationModel(oracle)
        single_worker_jobs = [job for job in ordered if job.scale_factor == 1]
        for first_index in range(len(single_worker_jobs)):
            for second_index in range(first_index + 1, len(single_worker_jobs)):
                job_a = single_worker_jobs[first_index]
                job_b = single_worker_jobs[second_index]
                pair_values = beneficial_pair_row(
                    model,
                    job_a.job_type,
                    job_b.job_type,
                    registry.names,
                    threshold=colocation_threshold,
                )
                if pair_values is not None:
                    pairs[(job_a.job_id, job_b.job_id)] = pair_values

    return ThroughputMatrix.from_parts(
        registry, [job.job_id for job in ordered], singles, pairs
    )
