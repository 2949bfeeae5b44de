"""Allocation matrices (the ``X`` of Section 3.1).

An allocation specifies, for every schedulable unit (job or job combination)
and every accelerator type, the fraction of wall-clock time the unit should
spend running on that type between allocation recomputations.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.accelerators import AcceleratorRegistry
from repro.cluster.cluster_spec import ClusterSpec
from repro.core.throughput_matrix import JobCombination, ThroughputMatrix
from repro.exceptions import AllocationError, UnknownJobError

__all__ = ["Allocation"]

_VALIDATION_TOLERANCE = 1e-4


class Allocation:
    """Time-fraction allocation over job combinations and accelerator types.

    Stored as one read-only ``(len(combinations), len(registry))`` array whose
    rows follow the sorted combinations; per-row and per-job accessors are
    views or sums over it.
    """

    def __deepcopy__(self, memo: dict) -> "Allocation":
        return self  # immutable: a deep copy (a policy-session clone) shares it

    def __init__(
        self,
        registry: AcceleratorRegistry,
        entries: Mapping[JobCombination, np.ndarray],
        scale_factors: Optional[Mapping[int, int]] = None,
    ) -> None:
        rows: Dict[JobCombination, np.ndarray] = {}
        for combination, values in entries.items():
            key = tuple(sorted(int(j) for j in combination))
            array = np.asarray(values, dtype=float).reshape(-1)
            if array.shape != (len(registry),):
                raise AllocationError(
                    f"allocation row for {key} has shape {array.shape}, expected ({len(registry)},)"
                )
            rows[key] = array
        combinations = tuple(sorted(rows))
        matrix = np.array([rows[combination] for combination in combinations], dtype=float)
        self._adopt(
            registry,
            combinations,
            matrix.reshape(len(rows), len(registry)),
            dict(scale_factors or {}),
        )

    def _adopt(
        self,
        registry: AcceleratorRegistry,
        combinations: Tuple[JobCombination, ...],
        matrix: np.ndarray,
        scale_factors: Optional[Mapping[int, int]],
        job_ids: Optional[Tuple[int, ...]] = None,
        demand: Optional[Tuple[int, ...]] = None,
    ) -> None:
        matrix.flags.writeable = False
        self._registry = registry
        self._combinations = combinations
        self._matrix = matrix
        self._scale_factors: Mapping[int, int] = scale_factors or {}
        # Everything below is derived from the three above on first use; a
        # builder that already holds one (the type-aggregated expansion) passes it.
        self._job_ids = job_ids
        self._demand = demand
        #: Row of each combination in ``_matrix``.
        self._rows: Optional[Dict[JobCombination, int]] = None
        #: Per-job sums over the rows containing the job, aligned with
        #: ``job_ids`` (see :meth:`_job_rows`).
        self._job_row_sums: Optional[np.ndarray] = None

    # -- constructors -------------------------------------------------------------
    @classmethod
    def from_matrix(
        cls,
        registry: AcceleratorRegistry,
        combinations: Tuple[JobCombination, ...],
        matrix: np.ndarray,
        scale_factors: Optional[Mapping[int, int]] = None,
        job_ids: Optional[Tuple[int, ...]] = None,
        demand: Optional[Tuple[int, ...]] = None,
    ) -> "Allocation":
        """Array-backed constructor: ``matrix[r]`` is the row of ``combinations[r]``.

        ``combinations`` must already be normalised (each a sorted tuple of
        ints) and sorted — e.g. ``ThroughputMatrix.dense_rows().combinations``
        — and ``matrix`` and ``scale_factors`` are adopted, not copied: the
        array becomes read-only, the mapping must not change afterwards.
        ``job_ids`` and ``demand`` are what :attr:`job_ids` and :attr:`demand`
        would derive, for a caller that holds them already.
        """
        if matrix.shape != (len(combinations), len(registry)):
            raise AllocationError(
                f"allocation matrix has shape {matrix.shape}, expected "
                f"({len(combinations)}, {len(registry)})"
            )
        allocation = cls.__new__(cls)
        allocation._adopt(registry, tuple(combinations), matrix, scale_factors, job_ids, demand)
        return allocation

    @classmethod
    def zeros(
        cls,
        matrix: ThroughputMatrix,
        scale_factors: Optional[Mapping[int, int]] = None,
    ) -> "Allocation":
        """An all-zero allocation over the rows of ``matrix``."""
        combinations = matrix.combinations
        return cls.from_matrix(
            matrix.registry,
            combinations,
            np.zeros((len(combinations), len(matrix.registry))),
            scale_factors=scale_factors,
        )

    # -- structure -----------------------------------------------------------------
    @property
    def registry(self) -> AcceleratorRegistry:
        return self._registry

    @property
    def combinations(self) -> Tuple[JobCombination, ...]:
        """Every row key, sorted; the row order of :attr:`matrix`."""
        return self._combinations

    @property
    def matrix(self) -> np.ndarray:
        """All rows as one read-only ``(len(combinations), len(registry))`` array."""
        return self._matrix

    @property
    def job_ids(self) -> Tuple[int, ...]:
        """Every job of any row, sorted."""
        if self._job_ids is None:
            self._job_ids = tuple(
                sorted({job_id for combination in self._combinations for job_id in combination})
            )
        return self._job_ids

    def scale_factor(self, job_id: int) -> int:
        """Workers requested by ``job_id`` (1 when not recorded)."""
        return int(self._scale_factors.get(job_id, 1))

    @property
    def demand(self) -> Tuple[int, ...]:
        """Workers each row occupies when scheduled: the largest scale factor among its jobs."""
        if self._demand is None:
            self._demand = tuple(
                max(self.scale_factor(job_id) for job_id in combination)
                for combination in self._combinations
            )
        return self._demand

    def _row_index(self, key: JobCombination) -> Optional[int]:
        if self._rows is None:
            self._rows = dict(zip(self._combinations, range(len(self._combinations))))
        return self._rows.get(key)

    def has_row(self, combination: Sequence[int]) -> bool:
        """Whether this allocation has an entry for the given combination."""
        return self._row_index(tuple(sorted(int(j) for j in combination))) is not None

    # -- values ---------------------------------------------------------------------
    def row(self, combination: Sequence[int]) -> np.ndarray:
        key = tuple(sorted(int(j) for j in combination))
        index = self._row_index(key)
        if index is None:
            raise UnknownJobError(f"combination {key} is not part of this allocation")
        return self._matrix[index].copy()

    def value(self, combination: Sequence[int], accelerator_name: str) -> float:
        return float(self.row(combination)[self._registry.index_of(accelerator_name)])

    def _job_rows(self) -> np.ndarray:
        """``(len(job_ids), len(registry))`` sums over the rows containing each job.

        Built once, on first use: one pass over the combinations instead of
        one per queried job.  A same-group ``(j, j)`` row counts once.
        """
        if self._job_row_sums is None:
            position = {job_id: index for index, job_id in enumerate(self.job_ids)}
            rows: List[int] = []
            owners: List[int] = []
            for row, combination in enumerate(self._combinations):
                for job_id in dict.fromkeys(combination):
                    rows.append(row)
                    owners.append(position[job_id])
            sums = np.zeros((len(position), len(self._registry)))
            np.add.at(sums, owners, self._matrix[rows])
            self._job_row_sums = sums
        return self._job_row_sums

    def job_row(self, job_id: int) -> np.ndarray:
        """Per-accelerator time fractions of ``job_id`` summed over all rows containing it."""
        job_ids = self.job_ids
        index = bisect_left(job_ids, job_id)
        if index == len(job_ids) or job_ids[index] != job_id:
            return np.zeros(len(self._registry))
        return self._job_rows()[index].copy()

    def job_total(self, job_id: int) -> float:
        """Total time fraction job ``job_id`` receives across all rows and types."""
        return float(self.job_row(job_id).sum())

    def worker_usage(self) -> np.ndarray:
        """Expected worker usage per accelerator type (left side of constraint (3))."""
        usage = np.zeros(len(self._registry))
        for values, scale in zip(self._matrix, self.demand):
            usage += values * scale
        return usage

    def as_dict(self) -> Dict[JobCombination, np.ndarray]:
        """A copy of the raw entries."""
        return dict(zip(self._combinations, self._matrix.copy()))

    # -- validation -------------------------------------------------------------------
    def validate(self, cluster_spec: ClusterSpec, tolerance: float = _VALIDATION_TOLERANCE) -> None:
        """Check the Section 3.1 validity constraints, raising on violation.

        1. every entry lies in ``[0, 1]``;
        2. the total allocation of each job (summed over every combination the
           job participates in and every accelerator type) is at most 1;
        3. expected worker usage per accelerator type does not exceed the
           number of workers of that type.
        """
        matrix = self._matrix
        outside = ((matrix < -tolerance) | (matrix > 1 + tolerance)).any(axis=1)
        if outside.any():
            row = int(np.argmax(outside))
            raise AllocationError(
                f"allocation entries for {self._combinations[row]} are outside [0, 1]: "
                f"{matrix[row]}"
            )
        totals = self._job_rows().sum(axis=1)
        over = totals > 1 + tolerance
        if over.any():
            index = int(np.argmax(over))
            raise AllocationError(
                f"job {self.job_ids[index]} is allocated a total time fraction of "
                f"{totals[index]:.4f} > 1"
            )
        usage = self.worker_usage()
        capacity = cluster_spec.counts_vector()
        for column, name in enumerate(self._registry.names):
            if usage[column] > capacity[column] + tolerance:
                raise AllocationError(
                    f"allocation oversubscribes {name}: uses {usage[column]:.4f} of "
                    f"{capacity[column]:.0f} workers"
                )

    def is_valid(self, cluster_spec: ClusterSpec, tolerance: float = _VALIDATION_TOLERANCE) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(cluster_spec, tolerance=tolerance)
        except AllocationError:
            return False
        return True

    # -- misc ---------------------------------------------------------------------------
    def clipped(self, upper: Optional[float] = 1.0) -> "Allocation":
        """Return a copy with entries clipped to ``[0, upper]`` (cleans up LP round-off).

        Type-aggregated solves pass ``upper=None``: group-total rows may
        legitimately exceed 1, so only the lower bound is enforced.
        """
        return Allocation.from_matrix(
            self._registry,
            self._combinations,
            np.clip(self._matrix, 0.0, upper),
            scale_factors=self._scale_factors,
            job_ids=self._job_ids,
            demand=self._demand,
        )

    def __repr__(self) -> str:
        lines = [
            f"Allocation({len(self._combinations)} rows, accelerators={list(self._registry.names)})"
        ]
        for combination, row in zip(self._combinations, self._matrix):
            values = ", ".join(f"{v:.3f}" for v in row)
            lines.append(f"  {combination}: [{values}]")
        return "\n".join(lines)
